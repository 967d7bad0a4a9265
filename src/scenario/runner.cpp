#include "scenario/runner.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "exp/deployment.h"
#include "exp/telemetry.h"
#include "obs/profile.h"
#include "obs/timeline.h"
#include "record/query.h"
#include "roads/federation.h"
#include "sim/fault.h"
#include "sim/time.h"
#include "testing/invariants.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/query_generator.h"

namespace roads::scenario {

namespace {

sim::Time from_seconds(double s) {
  return static_cast<sim::Time>(s * static_cast<double>(sim::kSecond));
}

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv_mix(std::uint64_t hash, double value) {
  return fnv_mix(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t fnv_mix(std::uint64_t hash, const std::string& s) {
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Everything the phase loop needs to execute at a scheduled sim time.
/// Queries carry a pre-generated query + start server; mutation waves
/// carry the wave index; ticks close a telemetry window.
struct TimedAction {
  enum Kind { kMutationWave, kQuery, kTick };
  sim::Time at = 0;
  Kind kind = kTick;
  std::size_t index = 0;
};

bool action_order(const TimedAction& a, const TimedAction& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.index < b.index;
}

/// Deterministic interior victim: the lowest-id non-root server that
/// currently has children (the chaos suite's convention). Without a
/// coherent topology (multiple roots mid-recovery) falls back to the
/// lowest-id alive non-root server.
sim::NodeId interior_victim(core::Federation& fed,
                            const std::optional<hierarchy::Topology>& topo,
                            std::size_t nodes) {
  if (topo) {
    for (sim::NodeId i = 0; i < nodes; ++i) {
      if (i != topo->root() && !topo->children(i).empty()) return i;
    }
  }
  for (auto* s : fed.servers()) {
    if (s->alive() && !s->is_root()) return s->id();
  }
  return static_cast<sim::NodeId>(nodes - 1);
}

std::vector<sim::NodeId> alive_servers(core::Federation& fed) {
  std::vector<sim::NodeId> alive;
  for (auto* s : fed.servers()) {
    if (s->alive()) alive.push_back(s->id());
  }
  return alive;
}

sim::NodeId pick_alive(core::Federation& fed, util::Rng& rng,
                       sim::NodeId avoid) {
  const auto alive = alive_servers(fed);
  if (alive.empty()) return avoid;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const auto id = alive[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1))];
    if (id != avoid || alive.size() == 1) return id;
  }
  return alive.front();
}

double fract(double v) { return v - std::floor(v); }

}  // namespace

std::uint64_t ScenarioOutcome::metrics_fingerprint() const {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = fnv_mix(hash, name);
  for (const auto& phase : phases) {
    hash = fnv_mix(hash, phase.name);
    hash = fnv_mix(hash, phase.start_s);
    hash = fnv_mix(hash, phase.end_s);
    hash = fnv_mix(hash, static_cast<std::uint64_t>(phase.queries_issued));
    hash = fnv_mix(hash, static_cast<std::uint64_t>(phase.queries_completed));
    hash = fnv_mix(hash, static_cast<std::uint64_t>(phase.queries_shed));
    hash = fnv_mix(hash, static_cast<std::uint64_t>(phase.queries_rejected));
    hash = fnv_mix(hash, phase.cache_hits);
    hash = fnv_mix(hash, phase.latency_avg_ms);
    hash = fnv_mix(hash, phase.staleness_peak_s);
    hash = fnv_mix(hash, phase.false_positives);
    hash = fnv_mix(hash, phase.converged_at_s);
    hash = fnv_mix(hash, phase.time_to_recover_s);
    hash = fnv_mix(hash, static_cast<std::uint64_t>(phase.violations.size()));
    hash = fnv_mix(hash, static_cast<std::uint64_t>(phase.invariant_checks));
  }
  return hash;
}

bool ScenarioOutcome::invariants_ok() const {
  for (const auto& phase : phases) {
    if (!phase.violations.empty()) return false;
  }
  return true;
}

std::string ScenarioOutcome::summary() const {
  std::ostringstream os;
  for (const auto& phase : phases) {
    const std::string inv =
        phase.violations.empty()
            ? "ok"
            : std::to_string(phase.violations.size()) + " violations";
    char line[512];
    std::snprintf(line, sizeof line,
                  "PHASE scenario=%s phase=%s queries=%zu/%zu shed=%zu "
                  "rejected=%zu cache_hits=%llu "
                  "latency_ms=%.1f staleness_peak_s=%.1f fp=%.0f "
                  "converged_at_s=%.1f ttr_s=%.1f invariants=%s\n",
                  name.c_str(), phase.name.c_str(), phase.queries_completed,
                  phase.queries_issued, phase.queries_shed,
                  phase.queries_rejected,
                  static_cast<unsigned long long>(phase.cache_hits),
                  phase.latency_avg_ms,
                  phase.staleness_peak_s, phase.false_positives,
                  phase.converged_at_s, phase.time_to_recover_s, inv.c_str());
    os << line;
    for (const auto& violation : phase.violations) {
      os << "VIOLATION scenario=" << name << " phase=" << phase.name << " "
         << violation << "\n";
    }
    if (phase.time_to_recover_s >= 0.0) {
      std::snprintf(line, sizeof line,
                    "RECOVERY scenario=%s phase=%s ttr_s=%.1f "
                    "converged_at_s=%.1f\n",
                    name.c_str(), phase.name.c_str(),
                    phase.time_to_recover_s, phase.converged_at_s);
      os << line;
    }
    if (!phase.profile_line.empty()) os << phase.profile_line << "\n";
  }
  char tail[256];
  std::size_t total_violations = 0;
  for (const auto& phase : phases) total_violations += phase.violations.size();
  std::snprintf(tail, sizeof tail,
                "SCENARIO name=%s digest=%016llx fingerprint=%016llx "
                "sim_s=%.1f phases=%zu violations=%zu\n",
                name.c_str(),
                static_cast<unsigned long long>(event_digest),
                static_cast<unsigned long long>(metrics_fingerprint()),
                total_sim_s, phases.size(), total_violations);
  os << tail;
  return os.str();
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                             const ScenarioRunOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();

  core::FederationParams params;
  params.seed = spec.seed;
  params.config.max_children = spec.max_children;
  params.config.summary.histogram_buckets = 64;
  params.config.summary_refresh_period = from_seconds(spec.refresh_period_s);
  params.config.summary_ttl = from_seconds(3.5 * spec.refresh_period_s);
  params.config.maintenance_enabled = true;
  params.config.heartbeat_period = from_seconds(spec.heartbeat_s);
  params.config.heartbeat_miss_limit = 3;
  params.config.summary_keepalive_rounds = 1;
  params.config.query_cache_enabled = spec.query_cache;
  params.config.query_concurrency_limit = spec.query_concurrency;
  params.config.query_queue_limit = spec.query_queue_limit;
  params.threads = options.threads;
  params.profile = !options.profile_out.empty();
  const exp::Deployment dep(
      std::move(params), spec.nodes,
      workload::WorkloadSpec::paper_default(spec.attributes,
                                            spec.records_per_node));
  const auto federation = dep.build_federation();
  auto& fed = *federation;
  fed.start();

  // Telemetry rides manual ticks only — never timeline->start(): a
  // self-arming sampler would enter the event queue and perturb the
  // digest the threads=1 vs threads=N gate compares.
  exp::TelemetryOptions topts;
  topts.timeline.window = from_seconds(spec.probe_window_s);
  topts.staleness_bound = from_seconds(2.5 * spec.refresh_period_s);
  topts.audit_query_dimensions = std::min<std::size_t>(2, spec.attributes);
  topts.audit_seed = spec.seed ^ 0x0b5e;
  auto timeline = exp::attach_timeline(fed, topts);
  timeline->track_counter("roads.query.false_positives");

  fed.stabilize();
  sim::Time now = fed.simulator().now();
  timeline->tick(now);

  // Per-phase profile slices (profiled runs only). Formation and
  // stabilization get their own slice so phase 0 starts from a zeroed
  // ledger; each later slice is cut at the phase boundary BEFORE the
  // invariant sweep, so soundness-probe queries never pollute a
  // phase's attribution (sweep work lands in the next slice).
  std::vector<std::pair<std::string, obs::Profile>> profile_slices;
  if (fed.profiler() != nullptr) {
    profile_slices.emplace_back("formation", fed.profiler()->take_profile());
  }

  auto& fp_counter = fed.metrics().counter("roads.query.false_positives");
  auto& cache_hit_counter = fed.metrics().counter("roads.query.cache.hit");
  util::Rng rng(spec.seed ^ 0x5ce0a110ull);

  ScenarioOutcome outcome;
  outcome.name = spec.name;

  for (std::size_t phase_index = 0; phase_index < spec.phases.size();
       ++phase_index) {
    const auto& phase = spec.phases[phase_index];
    const sim::Time phase_start = now;
    const sim::Time phase_end = phase_start + from_seconds(phase.duration_s);
    const std::uint64_t fp_before = fp_counter.value();
    const std::uint64_t cache_hits_before = cache_hit_counter.value();
    // Topology snapshot, lazy and fallible: a phase can legitimately
    // begin while the forest still has several roots (the previous
    // phase ended mid-recovery), where Federation::topology() throws.
    // Victim selection then falls back to per-server state; the
    // success/failure itself is protocol state, so both engines take
    // the same path.
    std::optional<hierarchy::Topology> topo;
    bool topo_tried = false;
    const auto topology_now =
        [&]() -> const std::optional<hierarchy::Topology>& {
      if (!topo_tried) {
        topo_tried = true;
        try {
          topo = fed.topology();
        } catch (const std::exception&) {
        }
      }
      return topo;
    };
    const auto root_now = [&]() -> sim::NodeId {
      if (const auto& t = topology_now()) return t->root();
      for (auto* s : fed.servers()) {
        if (s->alive() && s->is_root()) return s->id();
      }
      return 0;
    };

    // --- Compile the phase's stresses --------------------------------------
    sim::FaultPlan plan;
    if (phase.message_faults) {
      plan.loss_rate = phase.message_faults->loss;
      plan.duplicate_rate = phase.message_faults->duplicate;
      plan.reorder_rate = phase.message_faults->reorder;
      plan.max_jitter = from_seconds(phase.message_faults->max_jitter_ms /
                                     1000.0);
    }
    // Phase-scoped windows only: Network::apply_fault_plan orphans a
    // replaced plan's pending windows, so everything scheduled here
    // must fire before the boundary heal. Clamp accordingly.
    const sim::Time last_crash = phase_end - sim::seconds(2);
    const sim::Time last_restart = phase_end - sim::seconds(1);
    if (phase.churn) {
      const auto root = root_now();
      std::vector<sim::NodeId> candidates;
      for (const auto id : alive_servers(fed)) {
        if (id != root) candidates.push_back(id);
      }
      const auto want = static_cast<std::size_t>(std::lround(
          phase.churn->fraction * static_cast<double>(candidates.size())));
      const std::size_t k = phase.churn->fraction > 0
                                ? std::max<std::size_t>(1, want)
                                : 0;
      const auto chosen = rng.sample_without_replacement(candidates.size(), k);
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        const double offset =
            phase.churn->start_s +
            phase.churn->spread_s * static_cast<double>(i) /
                static_cast<double>(std::max<std::size_t>(1, chosen.size()));
        sim::CrashWindow window;
        window.node = candidates[chosen[i]];
        window.crash_at =
            std::min(phase_start + from_seconds(offset), last_crash);
        window.restart_at =
            (phase.churn->rejoin && phase.churn->down_s > 0)
                ? std::min(window.crash_at + from_seconds(phase.churn->down_s),
                           last_restart)
                : window.crash_at;  // permanent
        plan.crashes.push_back(window);
      }
    }
    if (phase.flapping) {
      const auto victim = interior_victim(fed, topology_now(), spec.nodes);
      for (std::size_t f = 0; f < phase.flapping->flaps; ++f) {
        sim::CrashWindow window;
        window.node = victim;
        window.crash_at =
            phase_start + sim::seconds(1) +
            from_seconds(phase.flapping->period_s * static_cast<double>(f));
        if (window.crash_at > last_crash) break;
        window.restart_at = std::min(
            window.crash_at + from_seconds(phase.flapping->down_s),
            last_restart);
        plan.crashes.push_back(window);
      }
    }
    if (phase.partition) {
      const auto victim = interior_victim(fed, topology_now(), spec.nodes);
      sim::PartitionWindow window;
      window.group = topology_now()
                         ? topology_now()->subtree(victim)
                         : std::vector<sim::NodeId>{victim};
      window.start = std::min(
          phase_start + from_seconds(phase.partition->start_s), last_crash);
      window.heal_at =
          std::min(window.start + from_seconds(phase.partition->heal_after_s),
                   last_restart);
      plan.partitions.push_back(window);
    }
    const bool plan_installed = !plan.empty();
    if (plan_installed) fed.apply_fault_plan(plan);

    bool links_slowed = false;
    if (phase.slow_links) {
      for (std::size_t l = 0; l < phase.slow_links->links; ++l) {
        const auto from = static_cast<sim::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(spec.nodes) - 1));
        auto to = static_cast<sim::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(spec.nodes) - 2));
        if (to >= from) ++to;
        const auto extra = from_seconds(phase.slow_links->extra_ms / 1000.0);
        fed.delay_space().set_link_extra(from, to, extra);
        if (!phase.slow_links->asymmetric) {
          fed.delay_space().set_link_extra(to, from, extra);
        }
        links_slowed = true;
      }
    }

    // Pre-generate this phase's query stream: background load first
    // (no hotspot), then the steered flash-crowd burst.
    workload::QueryGenerator qgen(
        dep.schema(), dep.spec(), spec.seed ^ (0x9e3700ull + phase_index));
    std::vector<record::Query> queries;
    std::vector<TimedAction> actions;
    const auto draw_query_time = [&] {
      return phase_start + sim::seconds(1) +
             from_seconds(rng.uniform01() *
                          std::max(0.0, phase.duration_s - 2.0));
    };
    if (phase.queries) {
      const auto dims =
          std::min(phase.queries->dimensions,
                   qgen.dimension_order().size());
      for (std::size_t q = 0; q < phase.queries->count; ++q) {
        actions.push_back({draw_query_time(), TimedAction::kQuery,
                           queries.size()});
        queries.push_back(qgen.generate(dims, phase.queries->range_length));
      }
    }
    if (phase.flash_crowd) {
      qgen.set_hotspot(workload::HotspotSpec{
          phase.flash_crowd->attribute, phase.flash_crowd->center,
          phase.flash_crowd->width, phase.flash_crowd->weight});
      // Under an open-loop block the crowd's skew steers the open-loop
      // population instead; its closed-loop query count is ignored.
      const auto dims =
          std::min(phase.flash_crowd->dimensions,
                   qgen.dimension_order().size());
      const std::size_t burst =
          phase.open_loop ? 0 : phase.flash_crowd->queries;
      for (std::size_t q = 0; q < burst; ++q) {
        actions.push_back({draw_query_time(), TimedAction::kQuery,
                           queries.size()});
        queries.push_back(
            qgen.generate(dims, phase.flash_crowd->range_length));
      }
    }
    if (phase.staleness_attack && phase.staleness_attack->waves > 0) {
      for (std::size_t w = 0; w < phase.staleness_attack->waves; ++w) {
        const double offset = phase.duration_s *
                              static_cast<double>(w + 1) /
                              static_cast<double>(
                                  phase.staleness_attack->waves + 1);
        actions.push_back({phase_start + from_seconds(offset),
                           TimedAction::kMutationWave, w});
      }
    }
    // Open-loop phases run with no interior ticks: driving between
    // actions uses fed.advance (parallel windows), which is unsafe
    // while open-loop clients are in flight — the whole phase is
    // micro-stepped instead and the telemetry window spans the phase.
    if (!phase.open_loop) {
      for (sim::Time t = phase_start + topts.timeline.window; t < phase_end;
           t += topts.timeline.window) {
        actions.push_back({t, TimedAction::kTick, 0});
      }
    }
    std::sort(actions.begin(), actions.end(), action_order);

    // Pre-draw the open-loop schedule. The drive plants it after the
    // closed-loop actions, of which spec parsing leaves an open-loop
    // phase none, so it starts at the phase start.
    std::vector<exp::Arrival> open_arrivals;
    if (phase.open_loop) {
      const auto& ol = *phase.open_loop;
      const auto dims =
          std::min(ol.dimensions, qgen.dimension_order().size());
      std::vector<record::Query> population;
      for (std::size_t q = 0; q < ol.population; ++q) {
        population.push_back(qgen.generate(dims, ol.range_length));
      }
      workload::ArrivalSpec aspec;
      aspec.process = ol.process == "selfsimilar"
                          ? workload::ArrivalProcess::kSelfSimilar
                          : workload::ArrivalProcess::kPoisson;
      aspec.rate_qps = ol.rate_qps;
      aspec.pareto_alpha = ol.pareto_alpha;
      util::Rng arrival_rng(spec.seed ^ (0xa4410000ull + phase_index));
      const auto arrivals =
          workload::generate_arrivals(aspec, ol.count, arrival_rng);
      // Clamp the tail inside the phase interior so the drain (and the
      // boundary heal) cannot be outrun by late arrivals.
      const sim::Time interior =
          std::max<sim::Time>(0, from_seconds(phase.duration_s - 3.0));
      workload::ZipfSampler zipf(population.size(), ol.zipf_s);
      for (const auto at : arrivals) {
        const auto rank = zipf.sample(rng);
        const auto start = pick_alive(
            fed, rng, /*avoid=*/static_cast<sim::NodeId>(spec.nodes));
        open_arrivals.push_back(
            {sim::seconds(1) + std::min(at, interior), population[rank],
             start});
      }
    }

    // --- Execute -----------------------------------------------------------
    PhaseOutcome result;
    result.name = phase.name;
    result.start_s = sim::to_seconds(phase_start);
    double latency_sum_ms = 0.0;
    const auto issue = [&](const record::Query& query, sim::NodeId start) {
      ++result.queries_issued;
      const auto out = fed.run_query(query, start);
      if (out.complete) {
        ++result.queries_completed;
        latency_sum_ms += out.latency_ms;
      }
    };
    for (const auto& action : actions) {
      if (action.at > now) {
        fed.advance(action.at - now);
        now = fed.simulator().now();
      }
      switch (action.kind) {
        case TimedAction::kQuery:
          issue(queries[action.index],
                pick_alive(fed, rng, /*avoid=*/static_cast<sim::NodeId>(spec.nodes)));
          break;
        case TimedAction::kMutationWave: {
          // Shift part of one victim's records out from under its
          // exported summary, then aim narrow queries at the OLD
          // values: the stale histogram/Bloom slots still claim them,
          // so every probe is a guaranteed false positive until the
          // next refresh rebuilds the summary.
          const auto victim = pick_alive(fed, rng, /*avoid=*/static_cast<sim::NodeId>(spec.nodes));
          auto& store = fed.server(victim).local_store();
          const auto snapshot = store.snapshot();
          const auto mutate = static_cast<std::size_t>(
              std::lround(phase.staleness_attack->fraction *
                          static_cast<double>(snapshot.size())));
          std::vector<double> old_values;
          for (std::size_t r = 0; r < std::min(mutate, snapshot.size());
               ++r) {
            auto record = snapshot[r];
            const double old_value = record.value(0).number();
            old_values.push_back(old_value);
            record.set_value(
                0, record::AttributeValue(fract(old_value + 0.5)));
            store.update(std::move(record));
          }
          for (std::size_t q = 0;
               q < phase.staleness_attack->queries && !old_values.empty();
               ++q) {
            const double v = old_values[q % old_values.size()];
            record::Query narrow;
            narrow.add(record::Predicate::range(
                0, std::max(0.0, v - 0.005), std::min(1.0, v + 0.005)));
            issue(narrow, pick_alive(fed, rng, victim));
          }
          break;
        }
        case TimedAction::kTick:
          timeline->tick(now);
          break;
      }
      now = fed.simulator().now();
    }
    if (phase.open_loop) {
      // Arrivals are clamped inside the phase, so the drive normally
      // finishes before phase_end; a backlogged queue may push
      // completion slightly past it (deterministically).
      for (const auto& c : exp::drive_open_loop(fed, open_arrivals)) {
        const auto& r = c->result();
        ++result.queries_issued;
        result.queries_shed += r.sheds;
        if (r.rejected) {
          ++result.queries_rejected;
        } else if (r.complete) {
          ++result.queries_completed;
          latency_sum_ms += sim::to_ms(r.forwarding_latency());
        }
      }
      now = fed.simulator().now();
    }
    if (phase_end > now) {
      fed.advance(phase_end - now);
      now = fed.simulator().now();
    }

    // --- Phase boundary: heal, close the window, sweep invariants ----------
    if (plan_installed) fed.apply_fault_plan(sim::FaultPlan{});
    if (links_slowed) fed.delay_space().clear_link_extras();
    timeline->tick(now);
    if (fed.profiler() != nullptr) {
      profile_slices.emplace_back(phase.name, fed.profiler()->take_profile());
      result.profile_line = obs::profile_top_line(
          profile_slices.back().second, spec.name + "/" + phase.name, 3);
    }

    result.end_s = sim::to_seconds(now);
    result.latency_avg_ms =
        result.queries_completed > 0
            ? latency_sum_ms / static_cast<double>(result.queries_completed)
            : 0.0;
    result.false_positives =
        static_cast<double>(fp_counter.value() - fp_before);
    result.cache_hits = cache_hit_counter.value() - cache_hits_before;
    for (const auto& w : timeline->windows()) {
      if (w.end > phase_start && w.start <= now) {
        result.staleness_peak_s = std::max(
            result.staleness_peak_s,
            w.value("probe.staleness.replica.max_s"));
      }
    }
    if (const auto converged = timeline->converged_after(phase_start)) {
      result.converged_at_s = sim::to_seconds(*converged);
      sim::Time base = phase_start;
      for (const auto start : plan.disruption_starts()) {
        if (start >= phase_start) {
          base = start;
          break;
        }
      }
      result.time_to_recover_s = sim::to_seconds(*converged - base);
    }
    if (options.check_invariants) {
      testing::InvariantOptions opts;
      opts.expect_single_root = phase.expect_single_root;
      opts.summary_soundness = phase.check_soundness;
      opts.soundness_probes = 8;
      const auto report = testing::check_invariants(fed, opts);
      result.violations = report.violations;
      result.invariant_checks = report.checks_run;
      now = fed.simulator().now();  // soundness probes advance the clock
    }
    outcome.phases.push_back(std::move(result));
  }

  outcome.event_digest = fed.network().event_digest();
  outcome.total_sim_s = sim::to_seconds(now);
  outcome.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  exp::write_observability(fed, timeline.get(), "", "", options.timeline_out);
  if (!options.profile_out.empty() && !profile_slices.empty()) {
    std::ofstream os(options.profile_out);
    if (os) {
      os << "{\"scenario\":\"" << spec.name << "\",\"seed\":" << spec.seed
         << ",\"threads\":" << options.threads << ",\"phases\":[\n";
      for (std::size_t i = 0; i < profile_slices.size(); ++i) {
        if (i > 0) os << ",\n";
        os << "{\"phase\":\"" << profile_slices[i].first << "\",\"profile\":";
        std::ostringstream inner;
        obs::write_profile_json(profile_slices[i].second, inner,
                                spec.name + "/" + profile_slices[i].first,
                                spec.seed, options.threads);
        // write_profile_json terminates its document with a newline;
        // strip it so the slice embeds cleanly.
        auto doc = inner.str();
        while (!doc.empty() && doc.back() == '\n') doc.pop_back();
        os << doc << "}";
      }
      os << "\n]}\n";
    }
  }
  return outcome;
}

}  // namespace roads::scenario

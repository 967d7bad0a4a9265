#include "exp/experiment.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "exp/telemetry.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/timeline.h"
#include "record/schema.h"
#include "roads/federation.h"
#include "testing/invariants.h"
#include "sword/sword_system.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/distributions.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace roads::exp {

namespace {

workload::WorkloadSpec spec_for(const ExpConfig& config) {
  if (config.overlap_factor) {
    return workload::WorkloadSpec::with_overlap_factor(
        *config.overlap_factor, config.nodes, config.attributes,
        config.records_per_node);
  }
  return workload::WorkloadSpec::paper_default(config.attributes,
                                               config.records_per_node);
}

workload::RecordGenerator generator_for(const ExpConfig& config,
                                        const record::Schema& schema,
                                        std::uint64_t run_seed) {
  workload::RecordGenerator generator(schema, spec_for(config), run_seed);
  if (config.correlated_data) {
    generator.anchor_by_balanced_tree(config.nodes, config.max_children);
  }
  return generator;
}

/// Structural-only invariant gate for experiment runs: soundness
/// probes would advance the clock and charge the query meters, so they
/// stay off here. Multiple roots are legitimate while a partition
/// window is open, so single-root is only demanded for fault-free
/// plans.
void verify_run_invariants(core::Federation& fed, const ExpConfig& config,
                           const char* stage, std::uint64_t run_seed,
                           const obs::Timeline* timeline) {
  testing::InvariantOptions opts;
  opts.summary_soundness = false;
  opts.expect_single_root = config.fault_plan.empty();
  const auto report = testing::check_invariants(fed, opts);
  if (!report.ok()) {
    std::string msg = std::string("run_roads_once: invariants failed ") +
                      stage + ": " + report.to_string();
    // Flight recorder: dump the trace ring's last events as a Chrome
    // trace tagged with the failing seed, so the violation's causal
    // history survives the throw and the run can be replayed.
    if (auto* trace = fed.trace()) {
      const std::string path =
          "FLIGHT_invariants_seed" + std::to_string(run_seed) + ".json";
      std::ofstream os(path);
      if (os) {
        // A profiled run adds its hot-handler table: where the CPU
        // went in the window leading up to the violation.
        std::optional<obs::Profile> profile;
        if (fed.profiler() != nullptr) profile = fed.profiler()->profile();
        obs::write_flight_record(*trace, os, msg, run_seed, timeline, 64,
                                 profile ? &*profile : nullptr);
        msg += " [flight record: " + path + "]";
      }
    }
    throw std::runtime_error(msg);
  }
}

/// Observability outputs for the designated repetition (run_seed ==
/// config.seed): the causal trace as a Perfetto-loadable Chrome trace
/// and the instrument registry as Prometheus text.
void write_run_observability(core::Federation& fed, const ExpConfig& config,
                             std::uint64_t run_seed,
                             const obs::Timeline* timeline) {
  if (run_seed != config.seed) return;
  if (!config.trace_out.empty() && fed.trace() != nullptr) {
    std::ofstream os(config.trace_out);
    if (os) {
      obs::write_chrome_trace(*fed.trace(), os);
      std::cerr << "wrote " << config.trace_out << "\n";
    } else {
      std::cerr << "warning: cannot write " << config.trace_out << "\n";
    }
  }
  if (!config.metrics_out.empty()) {
    std::ofstream os(config.metrics_out);
    if (os) {
      obs::write_prometheus(fed.network().metrics(), os);
      std::cerr << "wrote " << config.metrics_out << "\n";
    } else {
      std::cerr << "warning: cannot write " << config.metrics_out << "\n";
    }
  }
  if (!config.timeline_out.empty() && timeline != nullptr) {
    const std::string csv_path = config.timeline_out + ".csv";
    std::ofstream csv(csv_path);
    if (csv) {
      timeline->write_csv(csv);
      std::cerr << "wrote " << csv_path << "\n";
    } else {
      std::cerr << "warning: cannot write " << csv_path << "\n";
    }
    const std::string jsonl_path = config.timeline_out + ".jsonl";
    std::ofstream jsonl(jsonl_path);
    if (jsonl) {
      timeline->write_jsonl(jsonl);
      std::cerr << "wrote " << jsonl_path << "\n";
    } else {
      std::cerr << "warning: cannot write " << jsonl_path << "\n";
    }
  }
  if (!config.profile_out.empty() && fed.profiler() != nullptr) {
    const auto profile = fed.profiler()->profile();
    std::ofstream os(config.profile_out);
    if (os) {
      obs::write_profile_json(profile, os, "roads", run_seed, config.threads);
      std::cerr << "wrote " << config.profile_out << "\n";
    } else {
      std::cerr << "warning: cannot write " << config.profile_out << "\n";
    }
    std::ofstream collapsed(config.profile_out + ".collapsed");
    if (collapsed) {
      obs::write_collapsed(profile, collapsed);
      std::cerr << "wrote " << config.profile_out << ".collapsed\n";
    }
    std::ofstream speedscope(config.profile_out + ".speedscope.json");
    if (speedscope) {
      obs::write_speedscope(profile, speedscope, "roads");
      std::cerr << "wrote " << config.profile_out << ".speedscope.json\n";
    }
    std::cerr << obs::profile_top_line(profile, "roads", 5) << "\n";
    std::cerr << obs::profile_top_table(profile, 5);
  }
}

}  // namespace

RunMetrics run_roads_once(const ExpConfig& config, std::uint64_t run_seed) {
  const auto run_start = std::chrono::steady_clock::now();
  const auto wall_s = [](std::chrono::steady_clock::time_point from) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         from)
        .count();
  };
  const auto schema = record::Schema::uniform_numeric(config.attributes);
  const auto spec = spec_for(config);
  const auto generator = generator_for(config, schema, run_seed);

  core::FederationParams params;
  params.schema = schema;
  params.seed = run_seed;
  params.config.max_children = config.max_children;
  params.config.summary.histogram_buckets = config.histogram_buckets;
  if (config.numeric_mode_multires) {
    params.config.summary.numeric_mode =
        summary::NumericMode::kMultiResolution;
    params.config.summary.multires_budget = config.multires_budget;
  }
  params.config.summary_refresh_period = config.summary_period;
  params.config.summary_ttl = 4 * config.summary_period;
  params.config.overlay_enabled = config.overlay;
  params.config.join_policy = config.join_policy;
  params.config.summary_keepalive_rounds = config.summary_keepalive_rounds;
  params.config.incremental_refresh = config.incremental_refresh;
  params.threads = config.threads;
  // Profiling is digest-neutral but not free (~a tick read per event),
  // so only the designated repetition pays for it.
  params.profile = !config.profile_out.empty() && run_seed == config.seed;
  // A full query batch needs far more ring than the maintenance-window
  // default, so --trace-out bumps the bound unless the caller pinned it.
  if (config.trace_capacity > 0) {
    params.trace_capacity = config.trace_capacity;
  } else if (!config.trace_out.empty() && run_seed == config.seed) {
    params.trace_capacity = std::size_t{1} << 16;
  }

  core::Federation fed(std::move(params));
  fed.add_servers(config.nodes);

  // Every server hosts one co-located owner exporting detailed records
  // (the owner-hosts-its-own-server pattern of Fig. 1).
  for (std::size_t n = 0; n < config.nodes; ++n) {
    const auto node = static_cast<sim::NodeId>(n);
    auto owner = fed.add_owner(node, core::ExportMode::kDetailedRecords);
    for (auto& r : generator.records_for_node(static_cast<std::uint32_t>(n),
                                              owner->id())) {
      owner->store().insert(std::move(r));
    }
    fed.server(node).attach_owner(owner, core::ExportMode::kDetailedRecords);
  }

  fed.start();
  // Telemetry sampler: attached after formation (add_server drains the
  // event queue between joins; a live sampler would keep those drains
  // spinning) and before stabilization, so the timeline captures the
  // formation-to-steady-state convergence the detector cuts off.
  std::unique_ptr<obs::Timeline> timeline;
  if (config.probe_interval > 0 || !config.timeline_out.empty()) {
    TelemetryOptions topts;
    topts.timeline.window = config.probe_interval > 0 ? config.probe_interval
                                                      : config.summary_period;
    topts.audit_query_dimensions = config.query_dimensions;
    topts.audit_range_length = config.query_range_length;
    topts.audit_seed = run_seed ^ 0x0b5e;
    timeline = attach_timeline(fed, topts);
    if (fed.sharded() != nullptr) {
      // Sampler ticks are global (coordinator) events under sharding:
      // they bound the parallel windows, so probes read protocol state
      // only between windows, never concurrently with shard threads.
      timeline->start(*fed.sharded());
    } else {
      timeline->start(fed.simulator());
    }
  }
  const auto stabilize_start = std::chrono::steady_clock::now();
  fed.stabilize();
  const double stabilize_wall_s = wall_s(stabilize_start);
  // Faults start after clean formation: the paper's resilience story is
  // a formed hierarchy under churn/loss, not formation under fire.
  if (!config.fault_plan.empty()) {
    fed.apply_fault_plan(config.fault_plan);
  }
  if (config.verify_invariants) {
    verify_run_invariants(fed, config, "after stabilize", run_seed,
                          timeline.get());
  }

  RunMetrics metrics;
  metrics.hierarchy_height = static_cast<double>(fed.topology().height());

  // Update overhead: meter one full keepalive cycle (K refresh periods,
  // or a single one when suppression is off) and report the per-round
  // average. With digest suppression, most steady-state rounds are
  // silent and the cycle's traffic is dominated by its one keepalive
  // wave; averaging over the cycle is what a long-run observer would
  // measure per round.
  const std::size_t cycle =
      std::max<std::size_t>(1, config.summary_keepalive_rounds);
  fed.network().reset_meters();
  const auto engine_start = std::chrono::steady_clock::now();
  fed.advance(cycle * config.summary_period);
  // Engine-bound phase: stabilization plus this metered advance is
  // where the sharded engine parallelizes (refresh waves dominate);
  // joins and the query batch below run event-at-a-time under either
  // engine.
  metrics.engine_wall_s = stabilize_wall_s + wall_s(engine_start);
  const auto& update_meter = fed.network().meter(sim::Channel::kUpdate);
  metrics.update_bytes_per_round =
      static_cast<double>(update_meter.bytes) / static_cast<double>(cycle);
  metrics.update_bytes_per_s =
      metrics.update_bytes_per_round / sim::to_seconds(config.summary_period);
  metrics.maintenance_msgs_per_round =
      static_cast<double>(update_meter.messages) / static_cast<double>(cycle);

  // Storage: worst server.
  for (auto* server : fed.servers()) {
    metrics.max_storage_bytes =
        std::max(metrics.max_storage_bytes,
                 static_cast<double>(server->stored_summary_bytes()));
  }

  // Queries: the paper's batch, each issued from a random node, with
  // summaries held steady (they would not change during a query burst
  // anyway — ts is minutes).
  fed.set_refresh_paused(true);
  workload::QueryGenerator qgen(schema, spec, run_seed ^ 0x9e37);
  util::Rng pick(run_seed ^ 0x51a7);
  util::Samples latencies;
  util::RunningStat query_bytes;
  util::RunningStat contacted;
  util::RunningStat matches;
  std::size_t completed = 0;
  std::size_t touched_root = 0;
  std::size_t shed_events = 0;
  std::size_t rejected = 0;
  const bool from_root = config.start_at_root || !config.overlay;
  const auto root = fed.topology().root();
  for (std::size_t i = 0; i < config.queries; ++i) {
    const auto query =
        qgen.generate(config.query_dimensions, config.query_range_length);
    auto start = static_cast<sim::NodeId>(pick.uniform_int(
        0, static_cast<std::int64_t>(config.nodes) - 1));
    if (from_root) start = root;
    const auto outcome = fed.run_query(query, start);
    shed_events += outcome.sheds;
    if (outcome.rejected) ++rejected;
    if (!outcome.complete) continue;
    ++completed;
    latencies.add(outcome.latency_ms);
    query_bytes.add(static_cast<double>(outcome.query_bytes));
    contacted.add(static_cast<double>(outcome.servers_contacted));
    matches.add(static_cast<double>(outcome.matching_records));
    if (std::find(outcome.contacted.begin(), outcome.contacted.end(), root) !=
        outcome.contacted.end()) {
      ++touched_root;
    }
  }
  metrics.latency_avg_ms = latencies.mean();
  metrics.latency_p90_ms = latencies.percentile(90.0);
  metrics.query_bytes_avg = query_bytes.mean();
  metrics.servers_contacted_avg = contacted.mean();
  metrics.matches_avg = matches.mean();
  metrics.queries_completed = static_cast<double>(completed);
  metrics.queries_shed = static_cast<double>(shed_events);
  metrics.queries_rejected = static_cast<double>(rejected);
  if (completed > 0) {
    metrics.root_contact_fraction =
        static_cast<double>(touched_root) / static_cast<double>(completed);
  }
  metrics.instruments = fed.network().metrics().snapshot();
  if (timeline) {
    const auto first = timeline->first_converged_at();
    metrics.converged_at_s = first ? sim::to_seconds(*first) : -1.0;
    // Time-to-recover: for every scheduled disruption, sim time from
    // the disruption's start to the first (re-)convergence at or after
    // it; the run reports the worst one. A disruption that never
    // re-converged reports -1.
    for (const auto start : config.fault_plan.disruption_starts()) {
      const auto recovered = timeline->converged_after(start);
      if (!recovered) {
        metrics.time_to_recover_s = -1.0;
        break;
      }
      metrics.time_to_recover_s =
          std::max(metrics.time_to_recover_s,
                   sim::to_seconds(*recovered - start));
    }
  }
  if (config.verify_invariants) {
    verify_run_invariants(fed, config, "after query batch", run_seed,
                          timeline.get());
  }
  write_run_observability(fed, config, run_seed, timeline.get());
  metrics.total_wall_s = wall_s(run_start);
  return metrics;
}

RunMetrics run_sword_once(const ExpConfig& config, std::uint64_t run_seed) {
  const auto schema = record::Schema::uniform_numeric(config.attributes);
  const auto spec = spec_for(config);
  const auto generator = generator_for(config, schema, run_seed);

  sword::SwordParams params;
  params.schema = schema;
  params.seed = run_seed;
  params.record_refresh_period = config.record_period;

  sword::SwordSystem sys(config.nodes, params);
  for (std::size_t n = 0; n < config.nodes; ++n) {
    sys.set_records(static_cast<sim::NodeId>(n),
                    generator.records_for_node(
                        static_cast<std::uint32_t>(n),
                        static_cast<record::OwnerId>(n + 1)));
  }

  RunMetrics metrics;
  metrics.update_bytes_per_round =
      static_cast<double>(sys.run_registration_round());
  metrics.update_bytes_per_s =
      metrics.update_bytes_per_round / sim::to_seconds(config.record_period);
  metrics.max_storage_bytes = static_cast<double>(sys.max_stored_bytes());

  // Identical query batch and start nodes as the ROADS run (same seeds).
  workload::QueryGenerator qgen(schema, spec, run_seed ^ 0x9e37);
  util::Rng pick(run_seed ^ 0x51a7);
  util::Samples latencies;
  util::RunningStat query_bytes;
  util::RunningStat contacted;
  util::RunningStat matches;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < config.queries; ++i) {
    const auto query =
        qgen.generate(config.query_dimensions, config.query_range_length);
    const auto start = static_cast<sim::NodeId>(pick.uniform_int(
        0, static_cast<std::int64_t>(config.nodes) - 1));
    const auto outcome = sys.run_query(query, start);
    if (!outcome.complete) continue;
    ++completed;
    latencies.add(outcome.latency_ms);
    query_bytes.add(static_cast<double>(outcome.query_bytes));
    contacted.add(static_cast<double>(outcome.servers_contacted));
    matches.add(static_cast<double>(outcome.matching_records));
  }
  metrics.latency_avg_ms = latencies.mean();
  metrics.latency_p90_ms = latencies.percentile(90.0);
  metrics.query_bytes_avg = query_bytes.mean();
  metrics.servers_contacted_avg = contacted.mean();
  metrics.matches_avg = matches.mean();
  metrics.queries_completed = static_cast<double>(completed);
  metrics.instruments = sys.network().metrics().snapshot();
  return metrics;
}

RunMetrics average_runs(
    const ExpConfig& config,
    const std::function<RunMetrics(const ExpConfig&, std::uint64_t)>& system) {
  const std::size_t runs = std::max<std::size_t>(1, config.runs);

  // Repetitions are independent simulations (each owns its simulator,
  // network and RNG forks), so they can run concurrently. Results land
  // in a seed-indexed slot and are reduced below in index order, which
  // keeps the average bit-identical to the serial path regardless of
  // scheduling.
  std::vector<RunMetrics> results(runs);
  // Sharded repetitions own the cores already; running them
  // concurrently would oversubscribe and skew the wall-time columns.
  if (config.parallel_runs && runs > 1 && config.threads <= 1) {
    util::ThreadPool pool;
    pool.parallel_for(runs, [&](std::size_t i) {
      results[i] = system(config, config.seed + i);
    });
  } else {
    for (std::size_t i = 0; i < runs; ++i) {
      results[i] = system(config, config.seed + i);
    }
  }

  RunMetrics sum;
  std::vector<util::MetricSet> instruments;
  instruments.reserve(runs);
  for (auto& m : results) {
    instruments.push_back(std::move(m.instruments));
    sum.latency_avg_ms += m.latency_avg_ms;
    sum.latency_p90_ms += m.latency_p90_ms;
    sum.query_bytes_avg += m.query_bytes_avg;
    sum.servers_contacted_avg += m.servers_contacted_avg;
    sum.matches_avg += m.matches_avg;
    sum.update_bytes_per_round += m.update_bytes_per_round;
    sum.update_bytes_per_s += m.update_bytes_per_s;
    sum.max_storage_bytes += m.max_storage_bytes;
    sum.queries_completed += m.queries_completed;
    sum.queries_shed += m.queries_shed;
    sum.queries_rejected += m.queries_rejected;
    sum.hierarchy_height += m.hierarchy_height;
    sum.maintenance_msgs_per_round += m.maintenance_msgs_per_round;
    sum.root_contact_fraction += m.root_contact_fraction;
    sum.converged_at_s += m.converged_at_s;
    sum.time_to_recover_s += m.time_to_recover_s;
    sum.engine_wall_s += m.engine_wall_s;
    sum.total_wall_s += m.total_wall_s;
  }
  const auto d = static_cast<double>(runs);
  sum.latency_avg_ms /= d;
  sum.latency_p90_ms /= d;
  sum.query_bytes_avg /= d;
  sum.servers_contacted_avg /= d;
  sum.matches_avg /= d;
  sum.update_bytes_per_round /= d;
  sum.update_bytes_per_s /= d;
  sum.max_storage_bytes /= d;
  sum.queries_completed /= d;
  sum.queries_shed /= d;
  sum.queries_rejected /= d;
  sum.hierarchy_height /= d;
  sum.maintenance_msgs_per_round /= d;
  sum.root_contact_fraction /= d;
  sum.converged_at_s /= d;
  sum.time_to_recover_s /= d;
  sum.engine_wall_s /= d;
  sum.total_wall_s /= d;
  sum.instruments = util::MetricSet::average(instruments);
  return sum;
}

}  // namespace roads::exp

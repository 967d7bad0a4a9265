#include "exp/telemetry.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/probes.h"
#include "record/query.h"
#include "roads/federation.h"
#include "roads/server.h"
#include "workload/distributions.h"
#include "workload/query_generator.h"

namespace roads::exp {

namespace {

/// Private query stream + rotating server cursor for the divergence
/// audit, shared by the fp/fn probes. Both probes run in the same tick;
/// the cached `at` stamp makes the audit run once per tick no matter
/// how many probes read the tally.
struct AuditState {
  workload::QueryGenerator generator;
  std::size_t cursor = 0;
  sim::Time at = -1;
  obs::DivergenceTally tally;

  AuditState(record::Schema schema, workload::WorkloadSpec spec,
             std::uint64_t seed)
      : generator(std::move(schema), std::move(spec), seed) {}
};

}  // namespace

std::unique_ptr<obs::Timeline> attach_timeline(
    core::Federation& fed, const TelemetryOptions& options) {
  auto timeline =
      std::make_unique<obs::Timeline>(fed.metrics(), options.timeline);
  core::Federation* f = &fed;

  // Windowed instruments: the traffic channels the §V figures meter,
  // the completed-query counter (per-window query rate) and the
  // windowed latency quantiles.
  timeline->track_counter("net.query.messages");
  timeline->track_counter("net.query.bytes");
  timeline->track_counter("net.update.bytes");
  timeline->track_counter("net.maintenance.bytes");
  timeline->track_counter("roads.query.completed");
  timeline->track_histogram("roads.query.latency_ms");

  // Query-serving cache/admission meters (all flat 0 unless a
  // concurrency limit or the result cache is enabled): hit/miss/
  // invalidate/evicted chart cache effectiveness per window, neg_hit
  // the absorbed false-positive storms, shed the admission controller's
  // overload replies.
  timeline->track_counter("roads.query.cache.hit");
  timeline->track_counter("roads.query.cache.miss");
  timeline->track_counter("roads.query.cache.invalidate");
  timeline->track_counter("roads.query.cache.neg_hit");
  timeline->track_counter("roads.query.cache.shed");
  timeline->track_counter("roads.query.cache.evicted");

  // --- Shard utilization ----------------------------------------------------
  // Sharded runs meter per-shard busy/idle/barrier-wait wall time at
  // every window barrier (sim/sharded_simulator.h bind_metrics); the
  // per-window deltas make utilization skew visible over time.
  if (auto* sharded = fed.sharded()) {
    for (std::size_t i = 0; i < sharded->shard_count(); ++i) {
      const std::string prefix = "sim.shard." + std::to_string(i);
      timeline->track_counter(prefix + ".busy_us");
      timeline->track_counter(prefix + ".idle_us");
      timeline->track_counter(prefix + ".barrier_wait_us");
    }
  }

  // --- Staleness probes -----------------------------------------------------
  // Ages of soft state held ABOUT other servers: replicas received over
  // the overlay and child branch summaries received from children. Dead
  // servers are skipped — their soft state is unreachable and is
  // rebuilt from scratch on restart.
  timeline->add_probe("staleness.replica.max_s", [f](sim::Time now) {
    sim::Time max_age = 0;
    for (auto* s : f->servers()) {
      if (s->alive()) max_age = std::max(max_age, s->replicas().max_age(now));
    }
    return sim::to_seconds(max_age);
  });
  timeline->add_probe("staleness.replica.mean_s", [f](sim::Time now) {
    std::vector<sim::Time> ages;
    for (auto* s : f->servers()) {
      if (!s->alive()) continue;
      const auto a = s->replicas().ages(now);
      ages.insert(ages.end(), a.begin(), a.end());
    }
    return obs::summarize_ages(ages).mean_age_s;
  });
  timeline->add_probe("staleness.child.max_s", [f](sim::Time now) {
    sim::Time max_age = 0;
    for (auto* s : f->servers()) {
      if (!s->alive()) continue;
      for (const auto age : s->children().summary_ages(now)) {
        max_age = std::max(max_age, age);
      }
    }
    return sim::to_seconds(max_age);
  });

  // --- Divergence audit -----------------------------------------------------
  // Sampled ground truth: K fresh queries from a private generator,
  // each evaluated at a rotating window of alive servers as "does the
  // local summary claim a match" vs "does a stored record actually
  // match". The stream draws nothing from the federation RNG and the
  // cursor rotates so every server gets audited over time.
  auto audit = std::make_shared<AuditState>(
      fed.schema(),
      workload::WorkloadSpec::paper_default(fed.schema().size()),
      options.audit_seed);
  auto run_audit = [f, options, audit](sim::Time now) {
    if (audit->at == now) return;  // one audit per tick, shared by probes
    audit->at = now;
    audit->tally = obs::DivergenceTally{};
    std::vector<core::RoadsServer*> alive;
    for (auto* s : f->servers()) {
      if (s->alive()) alive.push_back(s);
    }
    if (alive.empty() || options.audit_queries == 0) return;
    std::vector<record::Query> queries;
    queries.reserve(options.audit_queries);
    for (std::size_t i = 0; i < options.audit_queries; ++i) {
      queries.push_back(audit->generator.generate(
          options.audit_query_dimensions, options.audit_range_length));
    }
    const std::size_t sample =
        std::min(options.audit_server_sample, alive.size());
    for (std::size_t k = 0; k < sample; ++k) {
      auto* s = alive[(audit->cursor + k) % alive.size()];
      const auto summary = s->local_summary();
      for (const auto& q : queries) {
        const bool claims = summary != nullptr && summary->matches(q);
        const bool truth = s->local_store().count_matching(q) > 0;
        audit->tally.add(claims, truth);
      }
    }
    audit->cursor = (audit->cursor + sample) % alive.size();
  };
  timeline->add_probe("divergence.fp_rate", [run_audit, audit](sim::Time now) {
    run_audit(now);
    return audit->tally.fp_rate();
  });
  timeline->add_probe("divergence.fn_rate", [run_audit, audit](sim::Time now) {
    run_audit(now);
    return audit->tally.fn_rate();
  });

  // --- Queue-depth watermark ------------------------------------------------
  // Federation-level accessor so a sharded run reports the sum of every
  // engine's watermark, not just the (mostly idle) coordinator heap.
  timeline->add_probe("queue.window_max_depth", [f](sim::Time) {
    return static_cast<double>(f->take_window_max_depth());
  });

  // --- Query-load imbalance -------------------------------------------------
  // Per-window visit deltas from the federation's cumulative per-server
  // visit counts. The max/mean probe refreshes the shared window-load
  // vector; the Gini probe reads it (probes run in registration order).
  auto last_visits = std::make_shared<std::vector<std::uint64_t>>();
  auto window_load = std::make_shared<std::vector<double>>();
  timeline->add_probe(
      "load.max_over_mean", [f, last_visits, window_load](sim::Time) {
        const auto& cur = f->query_visits();
        window_load->assign(f->server_count(), 0.0);
        for (std::size_t i = 0; i < cur.size() && i < window_load->size();
             ++i) {
          const std::uint64_t prev =
              i < last_visits->size() ? (*last_visits)[i] : 0;
          (*window_load)[i] =
              cur[i] >= prev ? static_cast<double>(cur[i] - prev) : 0.0;
        }
        last_visits->assign(cur.begin(), cur.end());
        return obs::max_over_mean(*window_load);
      });
  timeline->add_probe("load.gini", [window_load](sim::Time) {
    return obs::gini(*window_load);
  });

  // --- Per-node series ------------------------------------------------------
  if (options.per_node_series) {
    timeline->add_node_probe(
        "staleness.replica_s", fed.server_count(),
        [f](std::uint32_t node, sim::Time now) {
          auto& s = f->server(node);
          return s.alive() ? sim::to_seconds(s.replicas().max_age(now)) : 0.0;
        });
    timeline->add_node_probe("load.visits", fed.server_count(),
                             [f](std::uint32_t node, sim::Time) {
                               const auto& v = f->query_visits();
                               return node < v.size()
                                          ? static_cast<double>(v[node])
                                          : 0.0;
                             });
  }

  // --- Health + convergence gates -------------------------------------------
  const double bound_s = sim::to_seconds(options.staleness_bound > 0
                                             ? options.staleness_bound
                                             : fed.config().summary_ttl);
  timeline->add_health_check(
      "staleness", [bound_s](const obs::TimelineWindow& w) {
        return w.value("probe.staleness.replica.max_s") <= bound_s &&
               w.value("probe.staleness.child.max_s") <= bound_s;
      });
  const double fn_bound = options.divergence_threshold;
  timeline->add_health_check(
      "divergence", [fn_bound](const obs::TimelineWindow& w) {
        return w.value("probe.divergence.fn_rate") <= fn_bound;
      });
  if (options.flat_rate_tolerance > 0) {
    timeline->require_flat_rate("net.update.bytes",
                                options.flat_rate_tolerance,
                                options.flat_rate_floor);
  }
  return timeline;
}

}  // namespace roads::exp

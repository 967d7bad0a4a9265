#include "exp/load.h"

#include <algorithm>
#include <vector>

#include "central/central_repository.h"
#include "roads/federation.h"
#include "store/service_model.h"
#include "util/hash.h"
#include "util/stats.h"
#include "workload/distributions.h"
#include "workload/query_generator.h"

namespace roads::exp {

namespace {

/// The CI-sized data and query shape: 8 attributes, a degree-8
/// hierarchy with 200-bucket histograms and ts = 100 s, and
/// 4-dimensional queries of the paper's range 0.25 whose population
/// ranks are drawn Zipf(1.0). No sweep varies them.
constexpr std::size_t kAttributes = 8;
constexpr std::size_t kMaxChildren = 8;
constexpr std::size_t kHistogramBuckets = 200;
constexpr sim::Time kSummaryPeriod = sim::seconds(100);
constexpr std::size_t kQueryDimensions = 4;
constexpr double kQueryRangeLength = 0.25;
constexpr double kZipfS = 1.0;
/// Start servers: the last 4 ids (leaves under the balanced join
/// policy), a small gateway set that concentrates offered load enough
/// to expose the admission knee at CI-sized batches.
constexpr std::size_t kIngressNodes = 4;
/// One evaluation slot per server, each evaluation 10 ms: heavier than
/// the protocol default of 1 ms and comparable to what the service-time
/// model charges the central baseline per query, so serving capacity,
/// not the delay space, sets the saturation knee.
constexpr std::size_t kConcurrencyLimit = 1;
constexpr sim::Time kProcessingDelay = sim::ms(10);

struct Plan {
  std::vector<record::Query> population;
  std::vector<Arrival> arrivals;
  std::vector<std::size_t> query_rank;  // population index per arrival
};

/// The full pre-drawn schedule: arrival instants, Zipf ranks and start
/// nodes, all from seed-forked streams. Both systems replay the same
/// plan, and drawing everything up front keeps the RNG sequence
/// independent of execution interleaving (the determinism gate).
Plan make_plan(const LoadConfig& config, const Deployment& dep) {
  Plan plan;
  util::Rng arrival_rng(config.seed ^ 0xa441u);
  const auto times =
      workload::generate_arrivals(config.arrival, config.queries, arrival_rng);

  workload::QueryGenerator qgen(dep.schema(), dep.spec(),
                                config.seed ^ 0x9e37u);
  plan.population = qgen.generate_batch(
      std::max<std::size_t>(1, config.population), kQueryDimensions,
      kQueryRangeLength);
  workload::ZipfSampler zipf(plan.population.size(), kZipfS);
  util::Rng zipf_rng(config.seed ^ 0x21bfu);
  util::Rng pick(config.seed ^ 0x51a7u);
  const std::size_t ingress = std::min(kIngressNodes, config.nodes);
  plan.arrivals.reserve(times.size());
  plan.query_rank.reserve(times.size());
  for (const auto at : times) {
    const auto rank = zipf.sample(zipf_rng);
    const auto slot = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(ingress) - 1));
    const auto start = static_cast<sim::NodeId>(config.nodes - 1 - slot);
    plan.query_rank.push_back(rank);
    plan.arrivals.push_back({at, plan.population[rank], start});
  }
  return plan;
}

void fold_outcome(util::Fnv1a& fp, bool complete, std::size_t sheds,
                  bool rejected, std::size_t contacted, std::size_t matches,
                  sim::Time latency_us) {
  fp.add(static_cast<std::uint64_t>(complete ? 1 : 0));
  fp.add(static_cast<std::uint64_t>(sheds));
  fp.add(static_cast<std::uint64_t>(rejected ? 1 : 0));
  fp.add(static_cast<std::uint64_t>(contacted));
  fp.add(static_cast<std::uint64_t>(matches));
  fp.add(static_cast<std::uint64_t>(latency_us));
}

/// Fills `out`'s fingerprint, latency p99 over the served queries,
/// offered rate over the schedule's span, and goodput over the span
/// from `t0`, when the schedule starts, to `last_done`.
void fold_latencies(LoadMetrics& out, const Plan& plan, const util::Fnv1a& fp,
                    const util::Samples& served, sim::Time t0,
                    sim::Time last_done) {
  out.fingerprint = fp.value();
  out.p99_ms = served.percentile(99.0);
  const auto offered_span =
      plan.arrivals.empty() ? 0 : plan.arrivals.back().delay;
  if (offered_span > 0) {
    out.offered_qps =
        static_cast<double>(out.issued) / sim::to_seconds(offered_span);
  }
  if (last_done > t0) {
    out.goodput_qps = static_cast<double>(served.count()) /
                      sim::to_seconds(last_done - t0);
  }
}

}  // namespace

Deployment deployment_for(const LoadConfig& config) {
  core::FederationParams params;
  params.seed = config.seed;
  params.threads = config.threads;
  params.config.max_children = kMaxChildren;
  params.config.summary.histogram_buckets = kHistogramBuckets;
  params.config.summary_refresh_period = kSummaryPeriod;
  params.config.summary_ttl = 4 * kSummaryPeriod;
  params.config.query_cache_enabled = config.cache_enabled;
  params.config.query_concurrency_limit = kConcurrencyLimit;
  params.config.query_queue_limit = config.queue_limit;
  params.config.query_processing_delay = kProcessingDelay;
  return Deployment(
      std::move(params), config.nodes,
      workload::WorkloadSpec::paper_default(kAttributes,
                                            config.records_per_node));
}

LoadMetrics run_roads_load(const LoadConfig& config) {
  const auto dep = deployment_for(config);
  const auto plan = make_plan(config, dep);
  const auto federation = dep.build_federation();
  auto& fed = *federation;
  fed.start();
  fed.stabilize();
  // Summaries held steady through the measurement, like the closed-loop
  // batch: ts is minutes, a load sweep is seconds.
  fed.set_refresh_paused(true);

  // Cache meters accumulated during stabilization are not part of the
  // measurement.
  auto& hit_ctr = fed.metrics().counter("roads.query.cache.hit");
  auto& miss_ctr = fed.metrics().counter("roads.query.cache.miss");
  auto& neg_ctr = fed.metrics().counter("roads.query.cache.neg_hit");
  auto& evict_ctr = fed.metrics().counter("roads.query.cache.evicted");
  const auto hits0 = hit_ctr.value();
  const auto misses0 = miss_ctr.value();
  const auto negs0 = neg_ctr.value();
  const auto evicted0 = evict_ctr.value();

  const auto t0 = fed.network().simulator().now();
  const auto clients = drive_open_loop(fed, plan.arrivals);

  LoadMetrics out;
  out.issued = clients.size();
  util::Samples served;
  util::Fnv1a fp;
  sim::Time last_done = 0;
  for (const auto& c : clients) {
    const auto& r = c->result();
    fold_outcome(fp, r.complete, r.sheds, r.rejected, r.servers_contacted,
                 r.matching_records, r.forwarding_latency());
    if (r.complete) ++out.completed;
    out.shed_events += r.sheds;
    if (r.rejected) {
      ++out.rejected;
      continue;
    }
    if (r.complete) {
      served.add(sim::to_ms(r.forwarding_latency()));
      last_done = std::max(last_done, r.last_arrival);
    }
  }
  fold_latencies(out, plan, fp, served, t0, last_done);
  out.cache_hits = hit_ctr.value() - hits0;
  const auto misses = miss_ctr.value() - misses0;
  out.neg_hits = neg_ctr.value() - negs0;
  out.evicted = evict_ctr.value() - evicted0;
  if (out.cache_hits + misses > 0) {
    out.hit_rate = static_cast<double>(out.cache_hits) /
                   static_cast<double>(out.cache_hits + misses);
  }
  return out;
}

LoadMetrics run_central_load(const LoadConfig& config) {
  const auto dep = deployment_for(config);
  const auto plan = make_plan(config, dep);

  central::CentralParams params;
  params.schema = dep.schema();
  params.seed = config.seed;
  central::CentralRepository repo(config.nodes, params);
  for (std::size_t n = 0; n < config.nodes; ++n) {
    repo.set_records(static_cast<sim::NodeId>(n + 1),
                     dep.generator().records_for_node(
                         static_cast<std::uint32_t>(n),
                         static_cast<record::OwnerId>(n + 1)));
  }
  repo.run_export_round();

  // The repository's store is static during the measurement, so each
  // distinct population query has one service time — precompute it.
  std::vector<sim::Time> service(plan.population.size(), 0);
  for (std::size_t i = 0; i < plan.population.size(); ++i) {
    store::QueryStats stats{};
    const auto ids = repo.store().query(plan.population[i], &stats);
    stats.matches = ids.size();
    service[i] = store::service_time_us(repo.service_model(), stats, 0);
  }

  // Analytic single-server FIFO queue: arrivals in schedule order, the
  // repository serves one query at a time under the service model, and
  // replies ride the delay space back. No admission control, no cache —
  // past saturation the backlog (and p99) grows without bound, which is
  // exactly the contrast the sweep plots.
  LoadMetrics out;
  out.issued = plan.arrivals.size();
  util::Samples lat;
  util::Fnv1a fp;
  sim::Time free_at = 0;
  sim::Time last_done = 0;
  for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
    const auto at = plan.arrivals[i].delay;
    const auto client =
        static_cast<sim::NodeId>(plan.arrivals[i].start % config.nodes + 1);
    const auto rank = plan.query_rank[i];
    const auto reach = at + repo.network().latency(client, 0);
    const auto begin = std::max(reach, free_at);
    const auto done = begin + service[rank];
    free_at = done;
    const auto reply = done + repo.network().latency(0, client);
    lat.add(sim::to_ms(reply - at));
    last_done = std::max(last_done, reply);
    fold_outcome(fp, true, 0, false, 1, 0, reply - at);
  }
  out.completed = out.issued;
  fold_latencies(out, plan, fp, lat, 0, last_done);
  return out;
}

}  // namespace roads::exp

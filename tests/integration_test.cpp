// Cross-system integration tests: the paper's qualitative claims
// (§IV-V) checked end-to-end at reduced scale, plus cross-validation
// that ROADS, SWORD and brute force all find the same matches on the
// same workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exp/deployment.h"
#include "exp/experiment.h"
#include "exp/load.h"
#include "hierarchy/topology.h"
#include "roads/federation.h"
#include "sword/sword_system.h"
#include "util/stats.h"
#include "workload/query_generator.h"

namespace roads {
namespace {

exp::ExpConfig quick_config(std::size_t nodes) {
  exp::ExpConfig cfg;
  cfg.nodes = nodes;
  cfg.records_per_node = 120;
  cfg.queries = 60;
  cfg.runs = 1;
  cfg.seed = 11;
  return cfg;
}

TEST(Integration, JoinProtocolMatchesPureReplay) {
  // The data-anchoring scheme assumes the live join protocol produces
  // exactly Topology::join_filled; verify at several sizes/degrees.
  for (const auto& [n, k] :
       {std::make_pair(17u, 3u), std::make_pair(64u, 8u),
        std::make_pair(90u, 4u)}) {
    core::FederationParams params;
    params.schema = record::Schema::uniform_numeric(4);
    params.seed = 3;
    params.config.max_children = k;
    core::Federation fed(std::move(params));
    fed.add_servers(n);
    const auto actual = fed.topology();
    const auto replay = hierarchy::Topology::join_filled(n, k);
    for (sim::NodeId i = 1; i < n; ++i) {
      ASSERT_EQ(actual.parent(i), replay.parent(i))
          << "n=" << n << " k=" << k << " node=" << i;
    }
  }
}

TEST(Integration, RoadsAndSwordAgreeOnMatchCounts) {
  // Identical workload + identical query batch => identical total
  // matches. This cross-validates both query engines against each
  // other (and, by sword_test/store_test, against brute force).
  const auto cfg = quick_config(48);
  const auto roads = exp::run_roads_once(cfg, cfg.seed);
  const auto sword = exp::run_sword_once(cfg, cfg.seed);
  EXPECT_EQ(roads.queries_completed, static_cast<double>(cfg.queries));
  EXPECT_EQ(sword.queries_completed, static_cast<double>(cfg.queries));
  EXPECT_NEAR(roads.matches_avg, sword.matches_avg, 1e-9);
}

TEST(Integration, RoadsFindsExactlyTheBruteForceMatches) {
  core::FederationParams params;
  params.seed = 21;
  params.config.max_children = 4;
  params.config.summary.histogram_buckets = 200;
  const exp::Deployment dep(std::move(params), 24,
                            workload::WorkloadSpec::paper_default(8, 100));
  const auto fed = dep.build_federation();
  fed->start();
  fed->stabilize();

  workload::QueryGenerator qgen(dep.schema(), dep.spec(), 22);
  for (int i = 0; i < 40; ++i) {
    const auto q = qgen.generate(4, 0.3);
    const auto outcome =
        fed->run_query(q, static_cast<sim::NodeId>(i % 24));
    ASSERT_TRUE(outcome.complete);
    std::size_t expected = 0;
    for (std::uint32_t n = 0; n < 24; ++n) {
      for (const auto& r : dep.generator().records_for_node(n, n + 1)) {
        if (q.matches(r)) ++expected;
      }
    }
    EXPECT_EQ(outcome.matching_records, expected) << "query " << i;
  }
}

// --- The deployment every driver measures (exp/deployment.h) ---

/// A store's records ordered by id.
std::vector<record::ResourceRecord> by_id(const store::RecordStore& store) {
  auto records = store.snapshot();
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.id() < b.id(); });
  return records;
}

// Each server's store holds exactly the records the generator gives its
// node, ids and values, under owner ids 1..n in server order, and the
// sharded engine builds the same deployment.
TEST(Deployment, EachServerHoldsItsNodesGeneratedRecords) {
  for (const std::size_t threads : {1u, 4u}) {
    core::FederationParams params;
    params.seed = 5;
    params.config.max_children = 4;
    params.threads = threads;
    const exp::Deployment dep(std::move(params), 24,
                              workload::WorkloadSpec::paper_default(6, 30));
    const auto fed = dep.build_federation();
    ASSERT_EQ(fed->server_count(), 24u);
    for (std::uint32_t n = 0; n < 24; ++n) {
      const auto owner = static_cast<record::OwnerId>(n + 1);
      const auto want = dep.generator().records_for_node(n, owner);
      const auto held = by_id(fed->server(n).local_store());
      ASSERT_EQ(held.size(), want.size()) << "threads " << threads
                                          << " node " << n;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(held[i].id(), want[i].id()) << "node " << n;
        EXPECT_EQ(held[i].owner(), owner) << "node " << n;
        EXPECT_EQ(held[i].values(), want[i].values()) << "node " << n;
      }
    }
  }
}

// The baselines load their records from the drivers' deployments under
// their own owner ids (n + 1 in run_sword_once and run_central_load):
// the same record ids the federation's stores hold.
TEST(Deployment, BaselinesGetTheFederationsRecordIds) {
  auto exp_cfg = quick_config(24);
  exp_cfg.records_per_node = 30;
  exp::LoadConfig load_cfg;
  load_cfg.nodes = 24;
  load_cfg.records_per_node = 30;
  for (const auto& dep : {exp::deployment_for(exp_cfg, exp_cfg.seed),
                          exp::deployment_for(load_cfg)}) {
    const auto fed = dep.build_federation();
    for (std::uint32_t n = 0; n < 24; ++n) {
      const auto baseline = dep.generator().records_for_node(n, n + 1);
      const auto held = by_id(fed->server(n).local_store());
      ASSERT_EQ(held.size(), baseline.size()) << "node " << n;
      for (std::size_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(held[i].id(), baseline[i].id()) << "node " << n;
      }
    }
  }
}

TEST(Integration, UpdateOverheadRoadsFarBelowSword) {
  // Fig. 4's headline at reduced scale: per-second update overhead of
  // ROADS at least an order of magnitude below SWORD.
  auto cfg = quick_config(64);
  cfg.queries = 0;
  cfg.records_per_node = 250;
  const auto roads = exp::run_roads_once(cfg, cfg.seed);
  const auto sword = exp::run_sword_once(cfg, cfg.seed);
  EXPECT_GT(sword.update_bytes_per_s, 10.0 * roads.update_bytes_per_s);
}

TEST(Integration, RoadsUpdateConstantSwordLinearInRecords) {
  // Fig. 8's shape.
  auto lo = quick_config(32);
  lo.queries = 0;
  lo.records_per_node = 60;
  auto hi = lo;
  hi.records_per_node = 480;

  const auto roads_lo = exp::run_roads_once(lo, lo.seed);
  const auto roads_hi = exp::run_roads_once(hi, hi.seed);
  const auto sword_lo = exp::run_sword_once(lo, lo.seed);
  const auto sword_hi = exp::run_sword_once(hi, hi.seed);

  // ROADS: summaries are constant size; 8x the records changes update
  // traffic by (nearly) nothing.
  EXPECT_LT(roads_hi.update_bytes_per_round,
            1.15 * roads_lo.update_bytes_per_round);
  // SWORD: 8x records -> ~8x registration traffic.
  const double sword_ratio =
      sword_hi.update_bytes_per_round / sword_lo.update_bytes_per_round;
  EXPECT_GT(sword_ratio, 6.0);
  EXPECT_LT(sword_ratio, 10.0);
}

TEST(Integration, SwordLatencyGrowsFasterThanRoads) {
  // Fig. 3's shape at two sizes.
  auto small = quick_config(48);
  auto large = quick_config(192);
  const auto roads_small = exp::run_roads_once(small, small.seed);
  const auto roads_large = exp::run_roads_once(large, large.seed);
  const auto sword_small = exp::run_sword_once(small, small.seed);
  const auto sword_large = exp::run_sword_once(large, large.seed);
  const double roads_growth =
      roads_large.latency_avg_ms / roads_small.latency_avg_ms;
  const double sword_growth =
      sword_large.latency_avg_ms / sword_small.latency_avg_ms;
  EXPECT_GT(sword_growth, roads_growth);
}

TEST(Integration, MoreQueryDimensionsShrinkRoadsSearchScope) {
  // Fig. 6/7's mechanism: dimensions prune branches.
  auto cfg = quick_config(64);
  cfg.queries = 50;
  auto narrow = cfg;
  narrow.query_dimensions = 2;
  auto wide = cfg;
  wide.query_dimensions = 8;
  const auto at2 = exp::run_roads_once(narrow, cfg.seed);
  const auto at8 = exp::run_roads_once(wide, cfg.seed);
  EXPECT_LT(at8.servers_contacted_avg, at2.servers_contacted_avg);
  EXPECT_LE(at8.latency_avg_ms, at2.latency_avg_ms * 1.05);
}

TEST(Integration, OverlayLowersLatencyVsRootOnly) {
  // The §III-C claim, as the ablation measures it.
  auto with = quick_config(64);
  with.queries = 50;
  auto without = with;
  without.overlay = false;  // forces root-start too
  const auto on = exp::run_roads_once(with, with.seed);
  const auto off = exp::run_roads_once(without, without.seed);
  EXPECT_LT(on.latency_avg_ms, off.latency_avg_ms);
  // Both complete all queries (coverage does not depend on the overlay).
  EXPECT_EQ(on.queries_completed, off.queries_completed);
  EXPECT_NEAR(on.matches_avg, off.matches_avg, 1e-9);
}

TEST(Integration, HigherDegreeFlattensAndSpeedsQueries) {
  // Fig. 10's mechanism.
  auto deep = quick_config(96);
  deep.max_children = 3;
  deep.queries = 40;
  auto flat = deep;
  flat.max_children = 10;
  const auto d = exp::run_roads_once(deep, deep.seed);
  const auto f = exp::run_roads_once(flat, flat.seed);
  EXPECT_GT(d.hierarchy_height, f.hierarchy_height);
  EXPECT_GT(d.latency_avg_ms, f.latency_avg_ms);
}

TEST(Integration, OverlapFactorIncreasesContactedServers) {
  // Fig. 9's mechanism: more overlap -> more servers hold matches.
  auto disjoint = quick_config(64);
  disjoint.queries = 50;
  disjoint.overlap_factor = 1.0;
  auto overlapping = disjoint;
  overlapping.overlap_factor = 12.0;
  const auto lo = exp::run_roads_once(disjoint, disjoint.seed);
  const auto hi = exp::run_roads_once(overlapping, overlapping.seed);
  EXPECT_LE(lo.servers_contacted_avg, hi.servers_contacted_avg);
}

TEST(Integration, AverageRunsAveragesDeterministically) {
  auto cfg = quick_config(32);
  cfg.queries = 20;
  cfg.runs = 2;
  const auto a = exp::average_runs(cfg, exp::run_roads_once);
  const auto b = exp::average_runs(cfg, exp::run_roads_once);
  EXPECT_DOUBLE_EQ(a.latency_avg_ms, b.latency_avg_ms);
  EXPECT_DOUBLE_EQ(a.update_bytes_per_round, b.update_bytes_per_round);

  // Repetitions on the thread pool are the free, exact parallelism:
  // every simulated field must equal the serial path's bit for bit.
  // Only wall clocks differ — engine_wall_s/total_wall_s and the
  // instruments' wall-timed histograms (*_us), whose counts still match.
  cfg.parallel_runs = false;
  const auto s = exp::average_runs(cfg, exp::run_roads_once);
  EXPECT_EQ(a.latency_avg_ms, s.latency_avg_ms);
  EXPECT_EQ(a.latency_p90_ms, s.latency_p90_ms);
  EXPECT_EQ(a.query_bytes_avg, s.query_bytes_avg);
  EXPECT_EQ(a.servers_contacted_avg, s.servers_contacted_avg);
  EXPECT_EQ(a.matches_avg, s.matches_avg);
  EXPECT_EQ(a.update_bytes_per_round, s.update_bytes_per_round);
  EXPECT_EQ(a.update_bytes_per_s, s.update_bytes_per_s);
  EXPECT_EQ(a.max_storage_bytes, s.max_storage_bytes);
  EXPECT_EQ(a.queries_completed, s.queries_completed);
  EXPECT_EQ(a.queries_shed, s.queries_shed);
  EXPECT_EQ(a.queries_rejected, s.queries_rejected);
  EXPECT_EQ(a.hierarchy_height, s.hierarchy_height);
  EXPECT_EQ(a.maintenance_msgs_per_round, s.maintenance_msgs_per_round);
  EXPECT_EQ(a.root_contact_fraction, s.root_contact_fraction);
  EXPECT_EQ(a.converged_at_s, s.converged_at_s);
  EXPECT_EQ(a.time_to_recover_s, s.time_to_recover_s);
  ASSERT_EQ(a.instruments.values().size(), s.instruments.values().size());
  for (const auto& [name, value] : a.instruments.values()) {
    ASSERT_TRUE(s.instruments.has(name)) << name;
    const bool wall_timed = name.find("_us.") != std::string::npos &&
                            name.find("_us.count") == std::string::npos;
    if (!wall_timed) {
      EXPECT_EQ(value, s.instruments.get(name)) << name;
    }
  }
}

TEST(Integration, StorageRoadsConstantInRecords) {
  // Table I's shape: per-server summary storage does not grow with the
  // record count; SWORD's raw-record storage does.
  auto lo = quick_config(32);
  lo.queries = 0;
  lo.records_per_node = 60;
  auto hi = lo;
  hi.records_per_node = 480;
  const auto roads_lo = exp::run_roads_once(lo, lo.seed);
  const auto roads_hi = exp::run_roads_once(hi, hi.seed);
  const auto sword_lo = exp::run_sword_once(lo, lo.seed);
  const auto sword_hi = exp::run_sword_once(hi, hi.seed);
  EXPECT_NEAR(roads_hi.max_storage_bytes / roads_lo.max_storage_bytes, 1.0,
              0.05);
  EXPECT_GT(sword_hi.max_storage_bytes / sword_lo.max_storage_bytes, 5.0);
}

// --- Open-loop load harness (exp/load.h) ---

exp::LoadConfig small_load_config() {
  exp::LoadConfig cfg;
  cfg.nodes = 24;
  cfg.records_per_node = 40;
  cfg.queries = 150;
  cfg.population = 12;
  cfg.arrival.rate_qps = 300.0;
  cfg.seed = 11;
  return cfg;
}

// The open-loop serving history — completions, sheds, per-client
// latencies, cache meters — must replay bit-identically: same config
// twice, and the sharded engine at threads=4 vs the sequential oracle.
TEST(OpenLoopLoad, FingerprintIsBitIdenticalAcrossRunsAndThreadCounts) {
  const auto cfg = small_load_config();
  const auto first = exp::run_roads_load(cfg);
  const auto again = exp::run_roads_load(cfg);
  EXPECT_EQ(first.fingerprint, again.fingerprint) << "same-config replay";
  EXPECT_EQ(first.completed, again.completed);
  EXPECT_EQ(first.cache_hits, again.cache_hits);

  auto sharded = cfg;
  sharded.threads = 4;
  const auto parallel = exp::run_roads_load(sharded);
  EXPECT_EQ(first.fingerprint, parallel.fingerprint)
      << "threads=4 serving history diverged from sequential";
  EXPECT_EQ(first.completed, parallel.completed);
  EXPECT_EQ(first.rejected, parallel.rejected);
  EXPECT_EQ(first.shed_events, parallel.shed_events);
  EXPECT_EQ(first.cache_hits, parallel.cache_hits);
  EXPECT_DOUBLE_EQ(first.p99_ms, parallel.p99_ms);
}

// The Zipf-skewed population makes repeats common, so the cache must
// actually absorb them — and the cache-off ablation of the same
// schedule must serve every query cold.
TEST(OpenLoopLoad, CacheAbsorbsZipfRepeatsAndAblationServesCold) {
  const auto cfg = small_load_config();
  const auto on = exp::run_roads_load(cfg);
  EXPECT_EQ(on.issued, 150u);
  EXPECT_GT(on.completed, 0u);
  EXPECT_GT(on.cache_hits, 0u) << "no hits from a 12-query population";
  EXPECT_GT(on.hit_rate, 0.2);

  auto off_cfg = cfg;
  off_cfg.cache_enabled = false;
  const auto off = exp::run_roads_load(off_cfg);
  EXPECT_EQ(off.cache_hits, 0u);
  EXPECT_EQ(off.neg_hits, 0u);
  EXPECT_EQ(off.hit_rate, 0.0);
  // Identical arrival schedule, so the offered side must agree.
  EXPECT_EQ(off.issued, on.issued);
  EXPECT_DOUBLE_EQ(off.offered_qps, on.offered_qps);
}

// The central baseline replays the same plan through one serial queue;
// its tail must collapse under load the federation still absorbs.
TEST(OpenLoopLoad, CentralBaselineSaturatesFirst) {
  auto cfg = small_load_config();
  cfg.arrival.rate_qps = 2000.0;
  cfg.queries = 400;
  const auto central = exp::run_central_load(cfg);
  EXPECT_EQ(central.completed, 400u);
  const auto roads = exp::run_roads_load(cfg);
  EXPECT_GT(central.p99_ms, roads.p99_ms)
      << "serial central queue should be the saturated side";
}

}  // namespace
}  // namespace roads

// Parameterized property sweeps across federation shapes and seeds:
// the invariants that must hold for EVERY configuration, not just the
// defaults — exact-match correctness from every start server, overlay
// coverage after the live protocol ran, and ROADS/SWORD parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "exp/deployment.h"
#include "exp/experiment.h"
#include "overlay/replica_set.h"
#include "record/query.h"
#include "roads/federation.h"
#include "sim/time.h"
#include "util/rng.h"
#include "workload/query_generator.h"

namespace roads {
namespace {

// (nodes, degree, seed)
using Shape = std::tuple<std::size_t, std::size_t, std::uint64_t>;

/// Ground truth from the deployment's generator: every record any
/// server's owner exports that matches `q`.
std::size_t brute_force(const exp::Deployment& dep, const record::Query& q) {
  std::size_t count = 0;
  for (std::size_t n = 0; n < dep.nodes(); ++n) {
    for (const auto& r : dep.generator().records_for_node(
             static_cast<std::uint32_t>(n),
             static_cast<record::OwnerId>(n + 1))) {
      if (q.matches(r)) ++count;
    }
  }
  return count;
}

class FederationProperty : public ::testing::TestWithParam<Shape> {
 protected:
  void Build() {
    const auto [nodes, degree, seed] = GetParam();
    core::FederationParams params;
    params.seed = seed;
    params.config.max_children = degree;
    params.config.summary.histogram_buckets = 60;
    dep_.emplace(std::move(params), nodes,
                 workload::WorkloadSpec::paper_default(6, 40));
    fed_ = dep_->build_federation();
    fed_->start();
    fed_->stabilize();
  }

  std::optional<exp::Deployment> dep_;
  std::unique_ptr<core::Federation> fed_;
};

TEST_P(FederationProperty, OverlayStateMatchesComputedReplicaSets) {
  Build();
  const auto topo = fed_->topology();
  for (sim::NodeId i = 0; i < dep_->nodes(); ++i) {
    const auto expected = overlay::replica_set(topo, i);
    EXPECT_EQ(fed_->server(i).replicas().size(), expected.size())
        << "node " << i;
    for (const auto& spec : expected) {
      EXPECT_TRUE(fed_->server(i).replicas().has(spec.origin, spec.kind));
    }
  }
}

TEST_P(FederationProperty, ExactMatchesFromRandomStartServers) {
  Build();
  const auto [nodes, degree, seed] = GetParam();
  (void)degree;
  workload::QueryGenerator qgen(dep_->schema(), dep_->spec(), seed ^ 0xabc);
  util::Rng pick(seed ^ 0xdef);
  for (int trial = 0; trial < 25; ++trial) {
    const auto q = qgen.generate(4, 0.3);
    const auto start = static_cast<sim::NodeId>(
        pick.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    const auto outcome = fed_->run_query(q, start);
    ASSERT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.matching_records, brute_force(*dep_, q))
        << "trial " << trial << " start " << start;
  }
}

TEST_P(FederationProperty, ContactsNeverExceedServerCount) {
  Build();
  workload::QueryGenerator qgen(dep_->schema(), dep_->spec(), 99);
  for (int trial = 0; trial < 10; ++trial) {
    const auto outcome = fed_->run_query(qgen.generate(2, 0.5), 0);
    EXPECT_LE(outcome.servers_contacted, dep_->nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FederationProperty,
    ::testing::Values(Shape{4, 2, 1}, Shape{9, 2, 2}, Shape{15, 2, 3},
                      Shape{13, 3, 4}, Shape{31, 5, 5}, Shape{40, 8, 6},
                      Shape{64, 8, 7}, Shape{27, 4, 8}));

// --- ROADS vs SWORD parity across seeds ---

class ParitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParitySweep, SameWorkloadSameMatches) {
  exp::ExpConfig cfg;
  cfg.nodes = 36;
  cfg.records_per_node = 80;
  cfg.queries = 25;
  cfg.runs = 1;
  cfg.seed = GetParam();
  const auto roads = exp::run_roads_once(cfg, cfg.seed);
  const auto sword = exp::run_sword_once(cfg, cfg.seed);
  EXPECT_NEAR(roads.matches_avg, sword.matches_avg, 1e-9)
      << "seed " << GetParam();
  EXPECT_EQ(roads.queries_completed, 25.0);
  EXPECT_EQ(sword.queries_completed, 25.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParitySweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// --- Result-cache soundness (the tentpole's correctness gate) ---

// The digest-keyed result cache must be invisible to clients: a hit
// replays a reply byte-identical to the cold evaluation, and ANY
// summary-state digest change (local store mutation, or a descendant's
// refreshed summary arriving) rotates the key so the next query
// re-evaluates instead of serving stale data. Swept across 16 seeds.
class CacheSoundnessSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::size_t kNodes = 15;
  static constexpr std::size_t kDegree = 3;
  static constexpr int kBuckets = 60;

  void Build(bool overlay = true) {
    core::FederationParams params;
    params.seed = GetParam();
    params.config.max_children = kDegree;
    params.config.summary.histogram_buckets = kBuckets;
    params.config.summary_refresh_period = sim::seconds(50);
    params.config.summary_ttl = sim::seconds(200);
    params.config.query_cache_enabled = true;
    params.config.overlay_enabled = overlay;
    dep_.emplace(std::move(params), kNodes,
                 workload::WorkloadSpec::paper_default(6, 30));
    fed_ = dep_->build_federation();
    fed_->start();
    fed_->stabilize();
  }

  /// Ground truth recomputed from the live stores, so it tracks
  /// mutations the test makes mid-run.
  std::size_t brute_force(const record::Query& q) const {
    std::size_t count = 0;
    for (sim::NodeId i = 0; i < kNodes; ++i) {
      for (const auto& r : fed_->server(i).local_store().snapshot()) {
        if (q.matches(r)) ++count;
      }
    }
    return count;
  }

  std::uint64_t counter(const char* name) const {
    return fed_->metrics().counter(name).value();
  }
  std::uint64_t hits() const { return counter("roads.query.cache.hit"); }

  /// One attribute value, and the narrow range query around it.
  struct Spot {
    std::size_t attr = 0;
    double value = 0.5;
    record::Query query() const {
      record::Query q;
      q.add(record::Predicate::range(attr, value - 0.001, value + 0.001));
      return q;
    }
  };

  /// The centre of a histogram bucket that no record occupies yet, so
  /// no summary anywhere admits its query (the root's branch summary
  /// covers every record).
  Spot unoccupied_spot() const {
    const auto branch = fed_->server(fed_->topology().root()).branch_summary();
    for (std::size_t a = 0; a < dep_->schema().size(); ++a) {
      for (int b = 0; b < kBuckets; ++b) {
        const Spot spot{a, (b + 0.5) / kBuckets};
        if (!branch->matches(spot.query())) return spot;
      }
    }
    ADD_FAILURE() << "every histogram bucket is occupied";
    return {};
  }

  /// Moves one record of `node` onto `spot`.
  void move_record(sim::NodeId node, const Spot& spot) {
    auto& store = fed_->server(node).local_store();
    auto moved = store.snapshot().front();
    moved.set_value(spot.attr, record::AttributeValue(spot.value));
    store.update(std::move(moved));
  }

  /// Runs `q` from `start` twice; the second run must be a cache hit.
  core::QueryOutcome warm(const record::Query& q, sim::NodeId start) {
    fed_->run_query(q, start);
    const auto hits_before = hits();
    auto outcome = fed_->run_query(q, start);
    EXPECT_GT(hits(), hits_before) << "warm-up query was not a hit";
    return outcome;
  }

  std::optional<exp::Deployment> dep_;
  std::unique_ptr<core::Federation> fed_;
};

TEST_P(CacheSoundnessSweep, HitIsByteIdenticalToColdEvaluation) {
  Build();
  const auto seed = GetParam();
  workload::QueryGenerator qgen(dep_->schema(), dep_->spec(), seed ^ 0xcac4e);
  util::Rng pick(seed ^ 0x5eed);
  for (int trial = 0; trial < 6; ++trial) {
    const auto q = qgen.generate(3, 0.35);
    const auto start = static_cast<sim::NodeId>(
        pick.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
    const auto hits_before = hits();
    const auto fp0 = counter("roads.query.false_positives");
    const auto shortcuts0 = counter("roads.overlay.shortcut_hits");
    const auto cold = fed_->run_query(q, start);
    ASSERT_TRUE(cold.complete);
    EXPECT_EQ(cold.matching_records, brute_force(q));
    const auto fp1 = counter("roads.query.false_positives");
    const auto shortcuts1 = counter("roads.overlay.shortcut_hits");
    const auto warm = fed_->run_query(q, start);
    ASSERT_TRUE(warm.complete);
    EXPECT_GT(hits(), hits_before) << "second evaluation was not a hit";
    EXPECT_EQ(warm.matching_records, cold.matching_records);
    EXPECT_EQ(warm.result_bytes, cold.result_bytes);
    // The §V meters are cache-transparent.
    EXPECT_EQ(counter("roads.query.false_positives") - fp1, fp1 - fp0);
    EXPECT_EQ(counter("roads.overlay.shortcut_hits") - shortcuts1,
              shortcuts1 - shortcuts0);
    // A hit holds the server for the hit delay, not a full evaluation
    // plus descent — it must never be slower than the cold pass.
    EXPECT_LE(warm.latency_ms, cold.latency_ms) << "trial " << trial;
  }
}

TEST_P(CacheSoundnessSweep, SummaryDigestChangeInvalidates) {
  Build();
  record::Query q;
  q.add(record::Predicate::range(0, 0.4, 0.6));

  // Mutating the start server's own store rotates its stamp at once.
  const auto leaf = static_cast<sim::NodeId>(kNodes - 1);
  const auto c0 = fed_->run_query(q, leaf).matching_records;
  EXPECT_EQ(c0, brute_force(q));
  auto& leaf_store = fed_->server(leaf).local_store();
  bool mutated = false;
  for (const auto& r : leaf_store.snapshot()) {
    if (q.matches(r)) continue;
    auto moved = r;
    moved.set_value(0, record::AttributeValue(0.5));
    leaf_store.update(std::move(moved));
    mutated = true;
    break;
  }
  ASSERT_TRUE(mutated) << "no non-matching leaf record to move";
  const auto after_local = fed_->run_query(q, leaf);
  EXPECT_EQ(after_local.matching_records, c0 + 1)
      << "stale cached reply served after a local store mutation";
  EXPECT_EQ(after_local.matching_records, brute_force(q));

  // From the root the leaf's change is invisible until its refreshed
  // summary propagates; after the refresh rounds the folded child
  // digests differ, the key rotates, and the evaluation is fresh.
  const auto root_cold = fed_->run_query(q, 0);
  fed_->advance(4 * sim::seconds(50));
  const auto root_fresh = fed_->run_query(q, 0);
  EXPECT_EQ(root_fresh.matching_records, brute_force(q));
  EXPECT_GE(root_fresh.matching_records, root_cold.matching_records);
}

// The next three cases each change one container a server's evaluation
// reads — and nothing else that server reads — between a warm query
// and a checked one, so a container mutator that failed to move its
// version would leave the stamp in place and serve the stale hit.

// Child table: with the overlay off, the root reads only its own store
// and its children's branch summaries.
TEST_P(CacheSoundnessSweep, ChildSummaryChangeInvalidatesAtRoot) {
  Build(/*overlay=*/false);
  const auto root = fed_->topology().root();
  const auto spot = unoccupied_spot();
  EXPECT_EQ(warm(spot.query(), root).matching_records, 0u);
  move_record(static_cast<sim::NodeId>(kNodes - 1), spot);
  fed_->advance(4 * sim::seconds(50));  // the new summary climbs to the root
  const auto checked = fed_->run_query(spot.query(), root);
  EXPECT_EQ(checked.matching_records, 1u);
  EXPECT_EQ(checked.matching_records, brute_force(spot.query()));
}

// Replica store: a leaf has no children, so a change elsewhere reaches
// its evaluation only through the overlay replicas it holds.
TEST_P(CacheSoundnessSweep, ReplicaChangeInvalidatesAtLeaf) {
  Build();
  const auto topo = fed_->topology();
  const auto leaf = static_cast<sim::NodeId>(kNodes - 1);
  ASSERT_TRUE(topo.is_leaf(leaf));
  const auto path = topo.path_from_root(leaf);
  sim::NodeId elsewhere = 0;
  while (std::find(path.begin(), path.end(), elsewhere) != path.end()) {
    ++elsewhere;
  }
  const auto spot = unoccupied_spot();
  EXPECT_EQ(warm(spot.query(), leaf).matching_records, 0u);
  move_record(elsewhere, spot);
  fed_->advance(4 * sim::seconds(50));  // replicas cascade down to the leaf
  const auto checked = fed_->run_query(spot.query(), leaf);
  EXPECT_EQ(checked.matching_records, 1u);
  EXPECT_EQ(checked.matching_records, brute_force(spot.query()));
}

// Child removal: with refresh paused, a leaf child's departure is the
// only change its parent sees; the parent must stop routing to it.
TEST_P(CacheSoundnessSweep, ChildLeaveInvalidatesAtParent) {
  Build();
  fed_->set_refresh_paused(true);
  const auto child = static_cast<sim::NodeId>(kNodes - 1);
  const auto topo = fed_->topology();
  ASSERT_TRUE(topo.is_leaf(child));
  const auto parent = *fed_->server(child).parent();
  const auto q =
      Spot{0, fed_->server(child).local_store().snapshot().front().value(0).number()}
          .query();
  const auto before = warm(q, parent);
  ASSERT_NE(std::find(before.contacted.begin(), before.contacted.end(), child),
            before.contacted.end());
  std::size_t child_matches = 0;
  for (const auto& r : fed_->server(child).local_store().snapshot()) {
    if (q.matches(r)) ++child_matches;
  }
  ASSERT_GT(child_matches, 0u);

  fed_->server(child).leave();
  fed_->advance(sim::seconds(1));  // the leave notice reaches the parent
  const auto checked = fed_->run_query(q, parent);
  EXPECT_EQ(std::find(checked.contacted.begin(), checked.contacted.end(), child),
            checked.contacted.end())
      << "parent still routed to its departed child";
  EXPECT_EQ(checked.matching_records, before.matching_records - child_matches);
}

// The cache holds only the current state's entries. Between rounds of
// repeated queries one server's store is rewritten with the same
// values: its version, and so its stamp, moves, while every summary
// (and so every other server's stamp) stays as it was. A server drops
// its old entries at its first lookup after its stamp moved, so from
// then on it holds at most one entry per query it has seen since, and
// a query misses exactly where it was not seen since.
TEST_P(CacheSoundnessSweep, CacheHoldsOnlyTheCurrentStampsEntries) {
  Build();
  const auto seed = GetParam();
  workload::QueryGenerator qgen(dep_->schema(), dep_->spec(), seed ^ 0x57a3);
  util::Rng pick(seed ^ 0xcafe);
  struct Probe {
    record::Query query;
    sim::NodeId start;
  };
  std::vector<Probe> probes;
  for (int i = 0; i < 5; ++i) {
    probes.push_back({qgen.generate(2, 0.4),
                      static_cast<sim::NodeId>(pick.uniform_int(
                          0, static_cast<std::int64_t>(kNodes) - 1))});
  }
  // Per server: the probes it has looked up since its stamp last moved,
  // and whether it has looked anything up since (its entries are
  // dropped only then).
  std::vector<std::set<std::size_t>> seen(kNodes);
  std::vector<bool> looked_up(kNodes, true);
  std::size_t entries_checked = 0;
  for (int round = 0; round < 6; ++round) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto misses0 = counter("roads.query.cache.miss");
        const auto served0 = hits() + counter("roads.query.cache.neg_hit");
        const auto out = fed_->run_query(probes[i].query, probes[i].start);
        ASSERT_TRUE(out.complete);
        std::uint64_t unseen = 0;
        for (const auto n : out.contacted) {
          unseen += seen[n].count(i) == 0 ? 1 : 0;
          seen[n].insert(i);
          looked_up[n] = true;
        }
        EXPECT_EQ(counter("roads.query.cache.miss") - misses0, unseen)
            << "round " << round << " probe " << i;
        EXPECT_EQ(hits() + counter("roads.query.cache.neg_hit") - served0,
                  out.contacted.size() - unseen)
            << "round " << round << " probe " << i;
        for (sim::NodeId n = 0; n < kNodes; ++n) {
          if (!looked_up[n]) continue;
          EXPECT_LE(fed_->server(n).query_cache_entries(), seen[n].size())
              << "server " << n << " round " << round;
          ++entries_checked;
        }
      }
    }
    // Rewrite one record of one server with its own values.
    const auto n = static_cast<sim::NodeId>(
        pick.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
    auto& store = fed_->server(n).local_store();
    store.update(store.snapshot().front());
    seen[n].clear();
    looked_up[n] = false;
  }
  EXPECT_GT(entries_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSoundnessSweep,
                         ::testing::Range<std::uint64_t>(1u, 17u));

// --- Bucket-count sweep: conservativeness must hold at any resolution ---

class BucketSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BucketSweep, CoarseSummariesStayConservative) {
  const auto buckets = GetParam();
  core::FederationParams params;
  params.seed = 17;
  params.config.max_children = 3;
  params.config.summary.histogram_buckets = buckets;
  const exp::Deployment dep(std::move(params), 12,
                            workload::WorkloadSpec::paper_default(4, 50));
  const auto fed = dep.build_federation();
  fed->start();
  fed->stabilize();

  workload::QueryGenerator qgen(dep.schema(), dep.spec(), 18);
  for (int trial = 0; trial < 20; ++trial) {
    const auto q = qgen.generate(3, 0.25);
    const auto outcome =
        fed->run_query(q, static_cast<sim::NodeId>(trial % 12));
    // Coarser buckets may contact more servers (false positives) but
    // can never lose a match.
    EXPECT_EQ(outcome.matching_records, brute_force(dep, q))
        << "buckets=" << buckets << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, BucketSweep,
                         ::testing::Values(2u, 5u, 10u, 100u, 1000u));

}  // namespace
}  // namespace roads

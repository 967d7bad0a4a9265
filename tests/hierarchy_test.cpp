// Tests for the hierarchy substrate: branch statistics, child tables,
// root paths, the join steering policy, and topology snapshots.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "hierarchy/branch_stats.h"
#include "hierarchy/child_table.h"
#include "hierarchy/join_policy.h"
#include "hierarchy/root_path.h"
#include "hierarchy/topology.h"
#include "summary/resource_summary.h"
#include "util/rng.h"

namespace roads::hierarchy {
namespace {

// --- BranchStats ---

TEST(BranchStats, LeafAggregation) {
  const auto leaf = aggregate_branch_stats({});
  EXPECT_EQ(leaf.depth, 1u);
  EXPECT_EQ(leaf.descendants, 1u);
}

TEST(BranchStats, AggregatesDepthAndCount) {
  const auto stats = aggregate_branch_stats(
      {BranchStats{2, 5}, BranchStats{1, 1}, BranchStats{3, 9}});
  EXPECT_EQ(stats.depth, 4u);
  EXPECT_EQ(stats.descendants, 16u);
}

// --- ChildTable ---

TEST(ChildTable, AddRemoveAndLookup) {
  ChildTable table;
  table.add(5, 100);
  table.add(3, 100);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.has(5));
  EXPECT_EQ(table.ids(), (std::vector<sim::NodeId>{3, 5}));  // ordered
  EXPECT_TRUE(table.remove(5));
  EXPECT_FALSE(table.remove(5));
  EXPECT_THROW(table.entry(5), std::out_of_range);
}

TEST(ChildTable, DuplicateAddThrows) {
  ChildTable table;
  table.add(1, 0);
  EXPECT_THROW(table.add(1, 0), std::logic_error);
}

TEST(ChildTable, StatsAndHeartbeatUpdates) {
  ChildTable table;
  table.add(1, 100);
  table.update_stats(1, BranchStats{3, 7});
  table.update_heartbeat(1, 250);
  EXPECT_EQ(table.entry(1).stats.depth, 3u);
  EXPECT_EQ(table.entry(1).last_heartbeat, 250);
  // Updates for unknown children are silently ignored (stale messages).
  table.update_stats(9, BranchStats{1, 1});
  table.update_heartbeat(9, 1);
  EXPECT_FALSE(table.has(9));
}

TEST(ChildTable, ExpiredChildren) {
  ChildTable table;
  table.add(1, 100);
  table.add(2, 500);
  EXPECT_EQ(table.expired(300), (std::vector<sim::NodeId>{1}));
  EXPECT_TRUE(table.expired(50).empty());
}

// The server's query-cache stamp trusts summary_version() to move on
// every change to summaries() and on nothing else.
TEST(ChildTable, SummaryVersionMovesExactlyWhenSummariesChange) {
  ChildTable table;
  auto seen = table.summary_version();
  const auto moved = [&] {
    const bool changed = table.summary_version() != seen;
    seen = table.summary_version();
    return changed;
  };
  const auto summary = std::make_shared<const summary::ResourceSummary>();
  table.add(1, 0);
  table.add(2, 0);
  table.add(3, 0);
  table.update_stats(1, BranchStats{2, 3});
  table.update_heartbeat(1, 5);
  table.touch_all(6);
  EXPECT_FALSE(moved()) << "add and non-summary updates";

  table.set_summary(1, summary, 10);
  EXPECT_TRUE(moved()) << "set_summary adding";
  EXPECT_EQ(table.summaries().at(1), summary);
  EXPECT_EQ(table.entry(1).last_summary, 10);
  table.set_summary(1, summary, 20);
  EXPECT_TRUE(moved()) << "set_summary replacing";
  table.set_summary(9, summary, 20);
  EXPECT_FALSE(moved()) << "set_summary for an unknown child";
  EXPECT_EQ(table.summaries().count(9), 0u);

  (void)table.ids();
  (void)table.aggregate();
  (void)table.expired(100);
  (void)table.summary_ages(30);
  EXPECT_EQ(table.summaries().size(), 1u);
  EXPECT_FALSE(moved()) << "reads";

  EXPECT_FALSE(table.remove(7));
  EXPECT_FALSE(moved()) << "remove of an absent child";
  EXPECT_TRUE(table.remove(3));
  EXPECT_FALSE(moved()) << "remove of a child that never sent a summary";
  EXPECT_TRUE(table.remove(1));
  EXPECT_TRUE(moved()) << "remove dropping a summary";
  EXPECT_EQ(table.summaries().count(1), 0u) << "remove kept the summary";

  table.set_summary(2, summary, 30);
  EXPECT_TRUE(moved());
  table.clear();
  EXPECT_TRUE(moved()) << "clear";
  EXPECT_TRUE(table.summaries().empty());
  table.clear();
  EXPECT_FALSE(moved()) << "clear of an empty table";
}

TEST(ChildTable, AggregateUsesChildStats) {
  ChildTable table;
  table.add(1, 0);
  table.add(2, 0);
  table.update_stats(1, BranchStats{2, 4});
  table.update_stats(2, BranchStats{1, 1});
  const auto stats = table.aggregate();
  EXPECT_EQ(stats.depth, 3u);
  EXPECT_EQ(stats.descendants, 6u);
}

// --- RootPath ---

TEST(RootPath, Accessors) {
  const RootPath path({10, 20, 30, 40});
  EXPECT_EQ(path.root(), 10u);
  EXPECT_EQ(path.self(), 40u);
  EXPECT_EQ(path.parent(), 30u);
  EXPECT_EQ(path.depth(), 3u);
  EXPECT_TRUE(path.contains(20));
  EXPECT_FALSE(path.contains(99));
}

TEST(RootPath, RootIsItsOwnParent) {
  const RootPath path({10});
  EXPECT_EQ(path.parent(), 10u);
  EXPECT_EQ(path.depth(), 0u);
}

TEST(RootPath, EmptyPathThrows) {
  const RootPath path;
  EXPECT_TRUE(path.empty());
  EXPECT_THROW(path.root(), std::logic_error);
  EXPECT_THROW(path.self(), std::logic_error);
}

TEST(RootPath, RejoinCandidatesGrandparentFirst) {
  // path = [root, A, B, parent, self]; after parent dies we try B, A,
  // root in that order.
  const RootPath path({1, 2, 3, 4, 5});
  EXPECT_EQ(path.rejoin_candidates(), (std::vector<sim::NodeId>{3, 2, 1}));
}

TEST(RootPath, RejoinCandidatesEmptyNearRoot) {
  EXPECT_TRUE(RootPath({1}).rejoin_candidates().empty());
  EXPECT_TRUE(RootPath({1, 2}).rejoin_candidates().empty());
  EXPECT_EQ(RootPath({1, 2, 3}).rejoin_candidates(),
            (std::vector<sim::NodeId>{1}));
}

TEST(RootPath, LoopDetection) {
  const RootPath parent_path({1, 2, 3});
  EXPECT_TRUE(RootPath::would_create_loop(parent_path, 2));
  EXPECT_FALSE(RootPath::would_create_loop(parent_path, 9));
}

TEST(RootPath, Extend) {
  const auto child = RootPath::extend(RootPath({1, 2}), 7);
  EXPECT_EQ(child.nodes(), (std::vector<sim::NodeId>{1, 2, 7}));
}

// --- JoinPolicy ---

TEST(JoinPolicy, AcceptsWhenCapacityAvailable) {
  JoinPolicy policy(JoinPolicyKind::kBalanced, 3);
  ChildTable table;
  table.add(1, 0);
  util::Rng rng(1);
  const auto d = policy.decide(table, {}, rng);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->accept);
}

TEST(JoinPolicy, DescendsIntoLeastDepthBranch) {
  JoinPolicy policy(JoinPolicyKind::kBalanced, 2);
  ChildTable table;
  table.add(1, 0);
  table.add(2, 0);
  table.update_stats(1, BranchStats{3, 8});
  table.update_stats(2, BranchStats{2, 9});
  util::Rng rng(1);
  const auto d = policy.decide(table, {}, rng);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->accept);
  EXPECT_EQ(d->descend_to, 2u);  // least depth wins despite more nodes
}

TEST(JoinPolicy, TieBreaksOnDescendantsThenId) {
  JoinPolicy policy(JoinPolicyKind::kBalanced, 2);
  ChildTable table;
  table.add(4, 0);
  table.add(2, 0);
  table.update_stats(4, BranchStats{2, 3});
  table.update_stats(2, BranchStats{2, 5});
  util::Rng rng(1);
  EXPECT_EQ(policy.decide(table, {}, rng)->descend_to, 4u);

  table.update_stats(2, BranchStats{2, 3});  // full tie -> lowest id
  EXPECT_EQ(policy.decide(table, {}, rng)->descend_to, 2u);
}

TEST(JoinPolicy, HonorsExclusionsAndBacktracks) {
  JoinPolicy policy(JoinPolicyKind::kBalanced, 2);
  ChildTable table;
  table.add(1, 0);
  table.add(2, 0);
  util::Rng rng(1);
  const auto d = policy.decide(table, {1}, rng);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->descend_to, 2u);
  // All excluded -> no decision (joiner must backtrack).
  EXPECT_FALSE(policy.decide(table, {1, 2}, rng).has_value());
}

TEST(JoinPolicy, ProximityChoosesNearestChild) {
  JoinPolicy policy(JoinPolicyKind::kProximity, 1);
  ChildTable table;
  table.add(1, 0);
  table.add(2, 0);
  table.add(3, 0);
  util::Rng rng(1);
  const JoinPolicy::LatencyFn latency = [](NodeId id) {
    return id == 2 ? 10.0 : 100.0;
  };
  const auto d = policy.decide(table, {}, rng, latency);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->accept);
  EXPECT_EQ(d->descend_to, 2u);
  // Excluding the nearest falls back to the next (tie -> lowest id).
  const auto d2 = policy.decide(table, {2}, rng, latency);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->descend_to, 1u);
}

TEST(JoinPolicy, ProximityWithoutOracleFallsBackToBalanced) {
  JoinPolicy policy(JoinPolicyKind::kProximity, 1);
  ChildTable table;
  table.add(1, 0);
  table.add(2, 0);
  table.update_stats(1, BranchStats{3, 9});
  table.update_stats(2, BranchStats{1, 1});
  util::Rng rng(1);
  const auto d = policy.decide(table, {}, rng);  // no latency oracle
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->descend_to, 2u);  // least depth
}

TEST(JoinPolicy, RandomChoosesAmongCandidates) {
  JoinPolicy policy(JoinPolicyKind::kRandom, 1);
  ChildTable table;
  table.add(1, 0);
  table.add(2, 0);
  table.add(3, 0);
  util::Rng rng(5);
  std::set<sim::NodeId> seen;
  for (int i = 0; i < 100; ++i) {
    const auto d = policy.decide(table, {2}, rng);
    ASSERT_TRUE(d.has_value());
    EXPECT_NE(d->descend_to, 2u);
    seen.insert(d->descend_to);
  }
  EXPECT_EQ(seen.size(), 2u);  // both non-excluded children chosen
}

// --- Topology ---

TEST(Topology, BalancedShape) {
  const auto topo = Topology::balanced(13, 3);
  EXPECT_EQ(topo.root(), 0u);
  EXPECT_EQ(topo.children(0), (std::vector<sim::NodeId>{1, 2, 3}));
  EXPECT_EQ(topo.parent(4), 1u);
  EXPECT_EQ(topo.height(), 2u);
  EXPECT_EQ(topo.depth(12), 2u);
}

TEST(Topology, JoinFilledRespectsCapacityAndBalance) {
  for (const std::size_t k : {2u, 4u, 8u}) {
    for (const std::size_t n : {5u, 17u, 64u, 100u}) {
      const auto topo = Topology::join_filled(n, k);
      std::size_t max_children = 0;
      for (sim::NodeId i = 0; i < n; ++i) {
        max_children = std::max(max_children, topo.children(i).size());
      }
      EXPECT_LE(max_children, k);
      // Balanced fill: height within one of the ideal BFS tree.
      EXPECT_LE(topo.height(), Topology::balanced(n, k).height() + 1);
      EXPECT_EQ(topo.subtree(topo.root()).size(), n);
    }
  }
}

TEST(Topology, PathAndSiblings) {
  const auto topo = Topology::balanced(13, 3);
  EXPECT_EQ(topo.path_from_root(4), (std::vector<sim::NodeId>{0, 1, 4}));
  EXPECT_EQ(topo.siblings(1), (std::vector<sim::NodeId>{2, 3}));
  EXPECT_TRUE(topo.siblings(0).empty());
}

TEST(Topology, SubtreePreorder) {
  const auto topo = Topology::balanced(13, 3);
  const auto sub = topo.subtree(1);
  EXPECT_EQ(sub.front(), 1u);
  EXPECT_EQ(sub.size(), 4u);  // node 1 + children 4,5,6
  for (const auto n : sub) {
    EXPECT_TRUE(n == 1 || topo.parent(n) == 1);
  }
}

TEST(Topology, LevelsGroupByDepth) {
  const auto topo = Topology::balanced(13, 3);
  const auto levels = topo.levels();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], (std::vector<sim::NodeId>{0}));
  EXPECT_EQ(levels[1].size(), 3u);
  EXPECT_EQ(levels[2].size(), 9u);
}

TEST(Topology, RejectsMalformedInput) {
  // Two roots.
  EXPECT_THROW(Topology({Topology::kNoParent, Topology::kNoParent}),
               std::invalid_argument);
  // Self-parent.
  EXPECT_THROW(Topology({Topology::kNoParent, 1}), std::invalid_argument);
  // Cycle 1 <-> 2.
  EXPECT_THROW(Topology({Topology::kNoParent, 2, 1}), std::invalid_argument);
  // Out-of-range parent.
  EXPECT_THROW(Topology({Topology::kNoParent, 9}), std::invalid_argument);
  // No root at all.
  EXPECT_THROW(Topology({0, 0}), std::invalid_argument);
}

TEST(Topology, AbsentNodesAreSkipped) {
  // 0 -> {1, 2}, node 3 absent (failed).
  const Topology topo({Topology::kNoParent, 0, 0, Topology::kAbsent});
  EXPECT_TRUE(topo.present(0));
  EXPECT_FALSE(topo.present(3));
  EXPECT_EQ(topo.height(), 1u);
  EXPECT_THROW(topo.depth(3), std::logic_error);
  EXPECT_FALSE(topo.has_parent(3));
  // Edge into an absent node is rejected.
  EXPECT_THROW(Topology({Topology::kNoParent, 3, 0, Topology::kAbsent}),
               std::invalid_argument);
}

TEST(Topology, IsLeaf) {
  const auto topo = Topology::balanced(4, 3);
  EXPECT_FALSE(topo.is_leaf(0));
  EXPECT_TRUE(topo.is_leaf(3));
}

}  // namespace
}  // namespace roads::hierarchy

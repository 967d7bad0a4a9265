// End-to-end tests of the ROADS core: federation construction via the
// join protocol, summary aggregation and replication, query resolution
// from arbitrary start servers, voluntary-sharing policies, and churn
// (failures, departures, root election).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "overlay/replica_set.h"
#include "record/query.h"
#include "roads/client.h"
#include "roads/federation.h"
#include "roads/query_cache.h"
#include "sim/delay_space.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace roads {
namespace {

using core::ExportMode;
using core::Federation;
using core::FederationParams;
using record::Predicate;
using record::Query;

FederationParams small_params(std::size_t attrs = 4,
                              std::size_t max_children = 3) {
  FederationParams p;
  p.schema = record::Schema::uniform_numeric(attrs);
  p.seed = 7;
  p.config.max_children = max_children;
  p.config.summary.histogram_buckets = 50;
  p.config.summary_refresh_period = sim::seconds(10);
  p.config.summary_ttl = sim::seconds(35);
  return p;
}

/// Builds a federation of n servers, each with one co-located detailed
/// owner holding `records_per_node` records whose attr0 identifies the
/// node: all its values equal (node + 0.5) / n.
Federation& build_identifiable(std::unique_ptr<Federation>& holder,
                               std::size_t n, std::size_t records_per_node,
                               std::size_t attrs = 4) {
  holder = std::make_unique<Federation>(small_params(attrs));
  auto& fed = *holder;
  fed.add_servers(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<sim::NodeId>(i);
    auto owner = fed.add_owner(node, ExportMode::kDetailedRecords);
    for (std::size_t j = 0; j < records_per_node; ++j) {
      std::vector<record::AttributeValue> values;
      const double center =
          (static_cast<double>(i) + 0.5) / static_cast<double>(n);
      values.emplace_back(center);  // attr0: node identity
      for (std::size_t a = 1; a < attrs; ++a) {
        values.emplace_back(0.5);  // constant elsewhere
      }
      owner->store().insert(record::ResourceRecord(
          static_cast<record::RecordId>(i * 1000 + j), owner->id(),
          std::move(values)));
    }
    fed.server(node).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();
  return fed;
}

Query query_attr0(double lo, double hi) {
  Query q;
  q.add(Predicate::range(0, lo, hi));
  return q;
}

// --- Join protocol / topology ---

TEST(FederationJoin, BuildsSingleTree) {
  Federation fed(small_params());
  fed.add_servers(13);
  const auto topo = fed.topology();
  EXPECT_EQ(topo.node_count(), 13u);
  EXPECT_EQ(topo.root(), 0u);
  EXPECT_EQ(topo.subtree(topo.root()).size(), 13u);
}

TEST(FederationJoin, RespectsMaxChildren) {
  Federation fed(small_params(4, 3));
  fed.add_servers(20);
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 20; ++i) {
    EXPECT_LE(topo.children(i).size(), 3u) << "node " << i;
  }
}

TEST(FederationJoin, BalancedPolicyYieldsLogDepth) {
  Federation fed(small_params(4, 4));
  fed.add_servers(64);
  // A balanced 4-ary tree over 64 nodes has height 3; allow 1 slack.
  EXPECT_LE(fed.topology().height(), 4u);
}

TEST(FederationJoin, RootPathsAreConsistent) {
  Federation fed(small_params());
  fed.add_servers(10);
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 10; ++i) {
    const auto& path = fed.server(i).root_path();
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.self(), i);
    EXPECT_EQ(path.root(), topo.root());
    EXPECT_EQ(path.nodes(), topo.path_from_root(i));
  }
}

// --- Aggregation & replication ---

TEST(FederationSummaries, RootSeesAllRecords) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 5);
  const auto root = fed.topology().root();
  auto branch = fed.server(root).branch_summary();
  ASSERT_TRUE(branch);
  EXPECT_EQ(branch->record_count(), 9u * 5u);
}

TEST(FederationSummaries, ReplicaSetsMatchTheOverlaySpec) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 2);
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 13; ++i) {
    for (const auto& spec : overlay::replica_set(topo, i)) {
      EXPECT_TRUE(fed.server(i).replicas().has(spec.origin, spec.kind))
          << "node " << i << " missing replica of " << spec.origin << " kind "
          << overlay::to_string(spec.kind);
    }
  }
}

TEST(FederationSummaries, BranchSummaryCountsSubtreeRecords) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 5);
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 9; ++i) {
    auto branch = fed.server(i).branch_summary();
    ASSERT_TRUE(branch);
    std::size_t expected = 0;
    for (const auto n : topo.subtree(i)) {
      expected += fed.server(n).local_store().size();
    }
    EXPECT_EQ(branch->record_count(), expected) << "node " << i;
  }
}

// --- Query resolution ---

TEST(FederationQuery, FindsAllMatchingRecordsFromRoot) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 5);
  const auto q = query_attr0(4.4 / 9.0, 4.6 / 9.0);  // node 4 only
  const auto outcome = fed.run_query(q, fed.topology().root());
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 5u);
}

TEST(FederationQuery, FindsAllMatchingRecordsFromEveryStartServer) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 3);
  const auto q = query_attr0(7.4 / 13.0, 7.6 / 13.0);
  for (sim::NodeId start = 0; start < 13; ++start) {
    const auto outcome = fed.run_query(q, start);
    EXPECT_TRUE(outcome.complete) << "start " << start;
    EXPECT_EQ(outcome.matching_records, 3u) << "start " << start;
  }
}

TEST(FederationQuery, WideQueryFindsEverything) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 4);
  const auto outcome = fed.run_query(query_attr0(0.0, 1.0), 3);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 9u * 4u);
}

TEST(FederationQuery, NonMatchingQueryContactsOnlyStartServer) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 3);
  // attr1 is constant 0.5 everywhere; query far away from it.
  Query q;
  q.add(Predicate::range(1, 0.9, 0.95));
  const auto outcome = fed.run_query(q, 5);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 0u);
  EXPECT_EQ(outcome.servers_contacted, 1u);
}

TEST(FederationQuery, MultiDimensionalConjunction) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 5);
  Query q;
  q.add(Predicate::range(0, 2.4 / 9.0, 2.6 / 9.0));  // node 2 only
  q.add(Predicate::range(1, 0.4, 0.6));              // matches (0.5)
  q.add(Predicate::range(2, 0.4, 0.6));
  const auto outcome = fed.run_query(q, 7);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 5u);

  // A contradictory extra dimension kills all matches.
  q.add(Predicate::range(3, 0.0, 0.1));
  const auto none = fed.run_query(q, 7);
  EXPECT_TRUE(none.complete);
  EXPECT_EQ(none.matching_records, 0u);
}

TEST(FederationQuery, LatencyIsPositiveAndBounded) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 3);
  const auto outcome = fed.run_query(query_attr0(0.0, 1.0), 11);
  EXPECT_TRUE(outcome.complete);
  EXPECT_GT(outcome.latency_ms, 0.0);
  EXPECT_LT(outcome.latency_ms, 5000.0);
}

// With every message duplicated, servers evaluate each query twice and
// every result batch arrives twice; the client must still collect each
// matching record once, cold and from the cache.
TEST(FederationQuery, DuplicatedMessagesCollectEachRecordOnce) {
  for (const bool cache : {false, true}) {
    std::unique_ptr<Federation> holder;
    auto& fed = build_identifiable(holder, 7, 3);
    fed.mutable_config().collect_results = true;
    fed.mutable_config().query_cache_enabled = cache;
    sim::FaultPlan plan;
    plan.duplicate_rate = 1.0;
    fed.apply_fault_plan(plan);
    for (int run = 0; run < 2; ++run) {
      const auto outcome = fed.run_query(query_attr0(0.0, 1.0), 0);
      ASSERT_TRUE(outcome.complete);
      EXPECT_EQ(outcome.matching_records, 21u);
      EXPECT_EQ(outcome.records.size(), outcome.matching_records)
          << "cache " << cache << " run " << run;
    }
  }
}

// --- Voluntary sharing ---

TEST(VoluntarySharing, SummaryOnlyOwnerAnswersThroughPolicy) {
  Federation fed(small_params());
  fed.add_servers(4);
  // Remote owner attaches to server 2 with a summary; its policy only
  // shows records to principal 42.
  auto owner = fed.add_owner(2, ExportMode::kSummaryOnly, /*colocated=*/false);
  for (int j = 0; j < 6; ++j) {
    owner->store().insert(record::ResourceRecord(
        static_cast<record::RecordId>(j), owner->id(),
        {record::AttributeValue(0.3), record::AttributeValue(0.5),
         record::AttributeValue(0.5), record::AttributeValue(0.5)}));
  }
  owner->set_policy([](core::Principal p, const record::ResourceRecord&) {
    return p == 42;
  });
  fed.server(2).attach_owner(owner, ExportMode::kSummaryOnly);
  fed.start();
  fed.stabilize();

  const auto q = query_attr0(0.25, 0.35);
  const auto stranger = fed.run_query(q, 0, /*principal=*/7);
  EXPECT_TRUE(stranger.complete);
  EXPECT_EQ(stranger.matching_records, 0u);

  const auto partner = fed.run_query(q, 0, /*principal=*/42);
  EXPECT_TRUE(partner.complete);
  EXPECT_EQ(partner.matching_records, 6u);
}

TEST(VoluntarySharing, SummaryOnlyKeepsRecordsOffTheServer) {
  Federation fed(small_params());
  fed.add_servers(2);
  auto owner = fed.add_owner(1, ExportMode::kSummaryOnly, /*colocated=*/false);
  owner->store().insert(record::ResourceRecord(
      1, owner->id(),
      {record::AttributeValue(0.3), record::AttributeValue(0.5),
       record::AttributeValue(0.5), record::AttributeValue(0.5)}));
  fed.server(1).attach_owner(owner, ExportMode::kSummaryOnly);
  EXPECT_EQ(fed.server(1).local_store().size(), 0u);
}

// --- Churn ---

FederationParams churn_params() {
  auto p = small_params();
  p.config.maintenance_enabled = true;
  p.config.heartbeat_period = sim::seconds(5);
  p.config.heartbeat_miss_limit = 3;
  return p;
}

TEST(FederationChurn, LeafFailureIsDetectedAndCleaned) {
  Federation fed(churn_params());
  fed.add_servers(10);
  fed.start();
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 10; ++i) {
    if (topo.is_leaf(i)) leaf = i;
  }
  const auto parent = topo.parent(leaf);
  fed.server(leaf).fail();
  fed.advance(sim::seconds(60));
  EXPECT_FALSE(fed.server(parent).children().has(leaf));
}

TEST(FederationChurn, InteriorFailureChildrenRejoin) {
  Federation fed(churn_params());
  fed.add_servers(13);
  fed.start();
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId victim = 0;
  for (sim::NodeId i = 1; i < 13; ++i) {
    if (!topo.children(i).empty()) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  const auto orphans = topo.children(victim);
  ASSERT_FALSE(orphans.empty());
  fed.server(victim).fail();
  fed.advance(sim::seconds(120));

  for (const auto orphan : orphans) {
    ASSERT_TRUE(fed.server(orphan).parent().has_value()) << "orphan "
                                                         << orphan;
    EXPECT_TRUE(fed.server(*fed.server(orphan).parent()).alive());
  }
}

TEST(FederationChurn, GracefulLeaveNotifiesImmediately) {
  Federation fed(churn_params());
  fed.add_servers(8);
  fed.start();
  fed.stabilize();
  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 8; ++i) {
    if (topo.is_leaf(i)) leaf = i;
  }
  const auto parent = topo.parent(leaf);
  fed.server(leaf).leave();
  fed.advance(sim::seconds(2));
  EXPECT_FALSE(fed.server(parent).children().has(leaf));
}

TEST(FederationChurn, RootFailureTriggersElection) {
  Federation fed(churn_params());
  fed.add_servers(10);
  fed.start();
  fed.stabilize();

  const auto old_root = fed.topology().root();
  fed.server(old_root).fail();
  fed.advance(sim::seconds(180));

  std::vector<sim::NodeId> roots;
  for (sim::NodeId i = 0; i < 10; ++i) {
    if (fed.server(i).alive() && fed.server(i).is_root()) roots.push_back(i);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_NE(roots[0], old_root);
}

TEST(FederationChurn, QueriesStillResolveAfterFailure) {
  Federation fed(churn_params());
  fed.add_servers(10);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto node = static_cast<sim::NodeId>(i);
    auto owner = fed.add_owner(node, ExportMode::kDetailedRecords);
    owner->store().insert(record::ResourceRecord(
        i, owner->id(),
        {record::AttributeValue((i + 0.5) / 10.0), record::AttributeValue(0.5),
         record::AttributeValue(0.5), record::AttributeValue(0.5)}));
    fed.server(node).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();

  // Kill a leaf that is not node 3 (whose record we query for).
  const auto topo = fed.topology();
  sim::NodeId victim = 0;
  for (sim::NodeId i = 0; i < 10; ++i) {
    if (topo.is_leaf(i) && i != 3) victim = i;
  }
  fed.server(victim).fail();
  fed.advance(sim::seconds(120));
  fed.stabilize();

  const auto q = query_attr0(3.4 / 10.0, 3.6 / 10.0);
  const sim::NodeId start = victim == 5 ? 6 : 5;
  const auto outcome = fed.run_query(q, start);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 1u);
}

// --- Serving path: result cache containers and admission control ---

TEST(QueryResultCacheBounds, EntryLimitEvictsLeastRecentlyUsed) {
  core::QueryResultCache cache(/*max_entries=*/3, /*max_bytes=*/1 << 20);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(cache.insert(k, std::make_shared<core::CachedReply>()), 0u);
  }
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.insert(4, std::make_shared<core::CachedReply>()), 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr) << "LRU victim survived";
  EXPECT_NE(cache.find(3), nullptr);
  EXPECT_NE(cache.find(4), nullptr);
}

TEST(QueryResultCacheBounds, ByteLimitEvictsButKeepsNewestEntry) {
  // Each empty CachedReply charges its 64-byte base; record_bytes adds
  // directly. A 150-byte budget holds two small entries at most.
  core::QueryResultCache cache(/*max_entries=*/64, /*max_bytes=*/150);
  const auto small = std::make_shared<core::CachedReply>();
  EXPECT_EQ(cache.insert(1, small), 0u);
  EXPECT_EQ(cache.insert(2, small), 0u);
  EXPECT_EQ(cache.insert(3, small), 1u) << "byte bound did not evict";
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(1), nullptr);

  // An entry larger than the whole budget still caches (the just-
  // inserted entry is never evicted) after clearing everything else.
  auto huge = std::make_shared<core::CachedReply>();
  huge->record_bytes = 1000;
  EXPECT_EQ(cache.insert(4, huge), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(4), nullptr);
}

TEST(NegativeCacheTtl, EntriesExpireAndRefresh) {
  core::NegativeCache cache(/*max_entries=*/8, /*ttl=*/sim::seconds(5));
  cache.insert(42, sim::seconds(0));
  EXPECT_TRUE(cache.contains(42, sim::seconds(4)));
  // A refresh restarts the clock; without it the entry dies at t=5.
  cache.insert(42, sim::seconds(4));
  EXPECT_TRUE(cache.contains(42, sim::seconds(8)));
  EXPECT_FALSE(cache.contains(42, sim::seconds(10)));
  EXPECT_EQ(cache.size(), 0u) << "expired entry still resident";

  // Capacity bound evicts the oldest entry first.
  core::NegativeCache bounded(/*max_entries=*/2, sim::seconds(100));
  bounded.insert(1, sim::seconds(1));
  bounded.insert(2, sim::seconds(2));
  bounded.insert(3, sim::seconds(3));
  EXPECT_EQ(bounded.size(), 2u);
  EXPECT_FALSE(bounded.contains(1, sim::seconds(3)));
  EXPECT_TRUE(bounded.contains(2, sim::seconds(3)));
  EXPECT_TRUE(bounded.contains(3, sim::seconds(3)));
}

/// Three-node federation with per-node-identifiable records and the
/// admission controller armed; queries aimed at node 0's band never
/// descend (children are pruned), so queue/shed accounting is exact.
Federation& build_admission_fed(std::unique_ptr<Federation>& holder,
                                std::size_t concurrency, std::size_t queue) {
  auto params = small_params();
  params.config.query_concurrency_limit = concurrency;
  params.config.query_queue_limit = queue;
  params.config.query_processing_delay = sim::ms(5);
  holder = std::make_unique<Federation>(std::move(params));
  auto& fed = *holder;
  fed.add_servers(3);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto node = static_cast<sim::NodeId>(i);
    auto owner = fed.add_owner(node, ExportMode::kDetailedRecords);
    owner->store().insert(record::ResourceRecord(
        static_cast<record::RecordId>(i), owner->id(),
        {record::AttributeValue((i + 0.5) / 3.0), record::AttributeValue(0.5),
         record::AttributeValue(0.5), record::AttributeValue(0.5)}));
    fed.server(node).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();
  return fed;
}

void drain(Federation& fed,
           const std::vector<std::shared_ptr<core::RoadsClient>>& clients) {
  const auto all_done = [&clients] {
    return std::all_of(clients.begin(), clients.end(),
                       [](const auto& c) { return c && c->done(); });
  };
  std::size_t guard = 0;
  while (!all_done()) {
    ASSERT_GT(fed.step(256), 0u) << "engine drained with clients open";
    ASSERT_LT(++guard, 100'000u);
  }
}

TEST(QueryAdmission, ShedsPastSlotAndQueueLimits) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_admission_fed(holder, /*concurrency=*/1, /*queue=*/1);
  const auto q = query_attr0(0.5 / 3.0 - 0.02, 0.5 / 3.0 + 0.02);
  // Four simultaneous arrivals at one server: one takes the slot, one
  // queues, two are shed with an explicit overload reply.
  std::vector<std::shared_ptr<core::RoadsClient>> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(fed.issue_query(q, 0));
  drain(fed, clients);

  std::size_t served = 0;
  std::size_t rejected = 0;
  for (const auto& c : clients) {
    EXPECT_TRUE(c->result().complete) << "overload reply must complete";
    if (c->result().rejected) {
      ++rejected;
      EXPECT_EQ(c->result().sheds, 1u);
    } else {
      ++served;
      EXPECT_EQ(c->result().matching_records, 1u);
    }
  }
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(fed.metrics().counter("roads.query.cache.shed").value(), 2u);
}

TEST(QueryAdmission, QueuedQueriesDrainInArrivalOrder) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_admission_fed(holder, /*concurrency=*/1, /*queue=*/8);
  const auto q = query_attr0(0.5 / 3.0 - 0.02, 0.5 / 3.0 + 0.02);
  std::vector<std::shared_ptr<core::RoadsClient>> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(fed.issue_query(q, 0));
  drain(fed, clients);

  sim::Time previous = 0;
  for (const auto& c : clients) {
    ASSERT_TRUE(c->result().complete);
    EXPECT_FALSE(c->result().rejected);
    EXPECT_EQ(c->result().matching_records, 1u);
    // FIFO service: each later arrival waits behind every earlier one.
    EXPECT_GE(c->result().forwarding_latency(), previous);
    previous = c->result().forwarding_latency();
  }
  EXPECT_EQ(fed.metrics().counter("roads.query.cache.shed").value(), 0u);
}

// --- Client reply deadlines ---

/// A query target with a scripted answer: `delay` after the query
/// arrives it replies with `redirects`, and it records when the client
/// took that reply (the send time of the hops it redirects to). A node
/// marked down never answers.
struct ScriptedNode : core::QueryTarget {
  sim::Network* net = nullptr;
  sim::NodeId id = 0;
  sim::Time delay = 0;
  std::vector<std::pair<sim::NodeId, core::QueryMode>> redirects;
  sim::Time replied_at = -1;

  void handle_query(std::shared_ptr<core::RoadsClient> client,
                    core::QueryMode /*mode*/) override {
    client->on_arrival(id);
    net->simulator().schedule_after(delay, [this, client] {
      net->send(id, client->location(), 64, sim::Channel::kQuery,
                [this, client] {
                  replied_at = net->simulator().now();
                  client->on_reply(id, redirects, 0, false);
                });
    });
  }
};

class ScriptedDirectory : public core::Directory {
 public:
  ScriptedDirectory(sim::Network& net, std::size_t nodes) : nodes_(nodes) {
    for (std::size_t i = 0; i < nodes; ++i) {
      nodes_[i].net = &net;
      nodes_[i].id = static_cast<sim::NodeId>(i);
    }
  }
  ScriptedNode& node(sim::NodeId id) { return nodes_.at(id); }
  core::RoadsServer& server(sim::NodeId /*id*/) override {
    throw std::logic_error("scripted directory has no servers");
  }
  core::QueryTarget& query_target(sim::NodeId id) override {
    return nodes_.at(id);
  }

 private:
  std::vector<ScriptedNode> nodes_;
};

/// One client at node 0 over six scripted nodes; start it at node 1.
struct ScriptedQuery {
  sim::Simulator sim;
  sim::DelaySpace space{6, util::Rng(3)};
  sim::Network net{sim, space, util::Rng(4)};
  ScriptedDirectory dir{net, 6};
  std::shared_ptr<core::RoadsClient> client =
      std::make_shared<core::RoadsClient>(net, dir, query_attr0(0.0, 1.0), 0);
};

TEST(ClientDeadline, FinishedClientIsFreedBeforeItsDeadline) {
  ScriptedQuery run;
  run.client->start(1);
  while (!run.client->done()) ASSERT_EQ(run.sim.run_steps(1), 1u);
  const std::weak_ptr<core::RoadsClient> weak = run.client;
  run.client.reset();
  // Only the reply deadline is still pending, and it does not hold the
  // client; when it fires it finds the client gone and does nothing.
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(run.sim.pending_events(), 1u);
  run.sim.run();
  EXPECT_EQ(run.sim.now(), sim::seconds(10));
}

TEST(ClientDeadline, EachSilentServerIsWrittenOffTenSecondsAfterItsSend) {
  ScriptedQuery run;
  // Node 1 redirects to 2 (down) and 3; node 3 answers 3 s late with a
  // redirect to 4 (down). The two dead servers are sent to at
  // different times.
  run.dir.node(1).redirects = {{2, core::QueryMode::kBranch},
                               {3, core::QueryMode::kBranch}};
  run.dir.node(3).delay = sim::seconds(3);
  run.dir.node(3).redirects = {{4, core::QueryMode::kBranch}};
  run.net.set_node_up(2, false);
  run.net.set_node_up(4, false);
  run.client->start(1);
  while (run.client->visited().size() < 4) {
    ASSERT_EQ(run.sim.run_steps(1), 1u);
  }
  EXPECT_EQ(run.client->visited(), (std::vector<sim::NodeId>{1, 2, 3, 4}));
  const auto first_send = run.dir.node(1).replied_at;  // the hop to 2
  const auto later_send = run.dir.node(3).replied_at;  // the hop to 4
  ASSERT_GT(later_send, first_send + sim::seconds(3));

  run.sim.run_until(later_send + sim::seconds(10) - 1);
  EXPECT_FALSE(run.client->done()) << "node 4 written off before its deadline";
  run.sim.run_until(later_send + sim::seconds(10));
  EXPECT_TRUE(run.client->done());
  EXPECT_EQ(run.client->result().servers_contacted, 2u);
}

TEST(ClientDeadline, FaultFreeQuerySchedulesOneDeadline) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 2);
  // stabilize() stops 5 s past a refresh round and maintenance is off,
  // so no refresh tick or heartbeat falls inside the query.
  fed.set_refresh_paused(true);
  const auto before = fed.engine_stats().scheduled;
  const auto outcome = fed.run_query(query_attr0(0.0, 1.0), 12);
  ASSERT_TRUE(outcome.complete);
  const auto hops = outcome.contacted.size();
  ASSERT_GT(hops, 1u);
  // Per hop: the query delivery, its processing and the reply delivery.
  // Per client: one reply deadline.
  EXPECT_EQ(fed.engine_stats().scheduled - before, 3 * hops + 1);
}

}  // namespace
}  // namespace roads

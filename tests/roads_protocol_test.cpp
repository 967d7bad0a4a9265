// Protocol-level tests of RoadsServer/RoadsClient internals that the
// end-to-end suite does not pin down: message-size accounting, summary
// refresh dynamics, replica role transformation, soft-state TTL expiry,
// query modes, result collection, owner re-export, and traffic-channel
// attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "overlay/replica_set.h"
#include "roads/federation.h"
#include "roads/messages.h"
#include "sim/fault.h"
#include "testing/invariants.h"
#include "util/hash.h"
#include "util/rng.h"

namespace roads {
namespace {

using core::ExportMode;
using core::Federation;
using core::FederationParams;

/// Structural + accounting invariants only: safe at meter- or
/// clock-sensitive assertion points (no soundness queries).
void expect_structural(Federation& fed) {
  testing::InvariantOptions opts;
  opts.summary_soundness = false;
  const auto report = testing::check_invariants(fed, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

/// The full sweep, soundness probes included (advances the clock).
void expect_invariants(Federation& fed) {
  testing::InvariantOptions opts;
  opts.soundness_probes = 4;
  const auto report = testing::check_invariants(fed, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

FederationParams proto_params() {
  FederationParams p;
  p.schema = record::Schema::uniform_numeric(4);
  p.seed = 31;
  p.config.max_children = 2;
  p.config.summary.histogram_buckets = 40;
  p.config.summary_refresh_period = sim::seconds(10);
  p.config.summary_ttl = sim::seconds(35);
  return p;
}

record::ResourceRecord rec(record::RecordId id, double v) {
  return record::ResourceRecord(
      id, 1,
      {record::AttributeValue(v), record::AttributeValue(0.5),
       record::AttributeValue(0.5), record::AttributeValue(0.5)});
}

record::Query q_attr0(double lo, double hi) {
  record::Query q;
  q.add(record::Predicate::range(0, lo, hi));
  return q;
}

// --- Message size model ---

TEST(Messages, SizesArePositiveAndMonotone) {
  using namespace core::msg;
  EXPECT_GT(join_request(0), 0u);
  EXPECT_LT(join_request(0), join_request(5));
  EXPECT_LT(join_response(1), join_response(8));
  EXPECT_LT(heartbeat_down(1, 0), heartbeat_down(4, 8));
  EXPECT_GT(heartbeat_up(), 0u);
  EXPECT_GT(leave_notice(), 0u);
  EXPECT_LT(redirect_reply(0), redirect_reply(10));
  EXPECT_EQ(results(100), 116u);
}

TEST(Messages, SummaryMessagesDominatedByPayload) {
  summary::SummaryConfig config;
  config.histogram_buckets = 1000;
  const auto schema = record::Schema::uniform_numeric(16);
  summary::ResourceSummary s(schema, config);
  // 16 attrs x (16 header + 4000 bucket bytes) + summary header.
  EXPECT_GT(core::msg::summary_update(s), 16u * 4000u);
  EXPECT_GT(core::msg::replica_push(s), core::msg::summary_update(s));
}

// --- Summary refresh / aggregation dynamics ---

TEST(Protocol, DataChangesPropagateOnNextRefresh) {
  Federation fed(proto_params());
  fed.add_servers(5);
  auto owner = fed.add_owner(4, ExportMode::kDetailedRecords);
  owner->store().insert(rec(1, 0.2));
  fed.server(4).attach_owner(owner, ExportMode::kDetailedRecords);
  fed.start();
  fed.stabilize();

  EXPECT_EQ(fed.run_query(q_attr0(0.18, 0.22), 0).matching_records, 1u);
  EXPECT_EQ(fed.run_query(q_attr0(0.78, 0.82), 0).matching_records, 0u);

  // The resource changes (dynamic records): the owner updates and
  // re-exports; after the next refresh rounds the new value is
  // discoverable and the old one is gone.
  owner->store().update(rec(1, 0.8));
  fed.server(4).reexport_owner(owner->id());
  fed.stabilize();
  EXPECT_EQ(fed.run_query(q_attr0(0.78, 0.82), 0).matching_records, 1u);
  EXPECT_EQ(fed.run_query(q_attr0(0.18, 0.22), 0).matching_records, 0u);
  expect_invariants(fed);
}

// A re-export replaces exactly the owner's records in the server's
// store, keeping every other owner's, and a remote owner pays one update
// message for it: its record bytes (detailed) or one summary update
// (summary-only).
TEST(Protocol, ReexportReplacesOnlyThatOwnersRecordsAndChargesOnce) {
  Federation fed(proto_params());
  fed.add_servers(3);
  // Each record carries its owner's id, which a re-export erases by.
  const auto owned = [](const core::ResourceOwner& owner, record::RecordId id,
                        double v) {
    return record::ResourceRecord(
        id, owner.id(),
        {record::AttributeValue(v), record::AttributeValue(0.5),
         record::AttributeValue(0.5), record::AttributeValue(0.5)});
  };
  const auto add = [&](core::ResourceOwner& owner, record::RecordId id,
                       double v) { owner.store().insert(owned(owner, id, v)); };
  auto changed = fed.add_owner(2, ExportMode::kDetailedRecords,
                               /*colocated=*/false);
  auto kept = fed.add_owner(2, ExportMode::kDetailedRecords);
  auto summarized = fed.add_owner(2, ExportMode::kSummaryOnly,
                                  /*colocated=*/false);
  for (record::RecordId id = 1; id <= 3; ++id) add(*changed, id, 0.1 * id);
  for (record::RecordId id = 10; id <= 12; ++id) add(*kept, id, 0.05 * id);
  add(*summarized, 20, 0.7);
  auto& server = fed.server(2);
  server.attach_owner(changed, ExportMode::kDetailedRecords);
  server.attach_owner(kept, ExportMode::kDetailedRecords);
  server.attach_owner(summarized, ExportMode::kSummaryOnly);

  // The owner drops a record, rewrites one and adds one.
  changed->store().erase(1);
  changed->store().update(owned(*changed, 2, 0.9));
  add(*changed, 4, 0.4);
  fed.network().reset_meters();
  server.reexport_owner(changed->id());

  auto want = kept->store().snapshot();
  for (auto& r : changed->store().snapshot()) want.push_back(std::move(r));
  std::sort(want.begin(), want.end(),
            [](const auto& a, const auto& b) { return a.id() < b.id(); });
  const auto got = server.local_store().snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id(), want[i].id());
    EXPECT_EQ(got[i].owner(), want[i].owner());
    EXPECT_EQ(got[i].values(), want[i].values());
  }
  EXPECT_EQ(server.local_store().stored_bytes(),
            kept->store().stored_bytes() + changed->store().stored_bytes());
  auto update = fed.network().meter(sim::Channel::kUpdate);
  EXPECT_EQ(update.messages, 1u);
  EXPECT_EQ(update.bytes, changed->store().stored_bytes());

  // A summary-only owner's re-export leaves the store alone.
  add(*summarized, 21, 0.8);
  fed.network().reset_meters();
  server.reexport_owner(summarized->id());
  EXPECT_EQ(server.local_store().size(), want.size());
  update = fed.network().meter(sim::Channel::kUpdate);
  EXPECT_EQ(update.messages, 1u);
  EXPECT_EQ(update.bytes,
            core::msg::summary_update(
                summarized->export_summary(fed.config().summary)));
}

TEST(Protocol, BranchStatsReachTheRoot) {
  Federation fed(proto_params());
  fed.add_servers(7);  // degree 2 -> depth 2, root sees 2 branches
  fed.start();
  fed.stabilize();
  const auto& root = fed.server(fed.topology().root());
  std::uint32_t total = 1;
  for (const auto child : root.children().ids()) {
    total += root.children().entry(child).stats.descendants;
  }
  EXPECT_EQ(total, 7u);
  expect_structural(fed);
}

TEST(Protocol, ReplicaRolesTransformDownTheTree) {
  Federation fed(proto_params());
  fed.add_servers(7);
  fed.start();
  fed.stabilize();
  const auto topo = fed.topology();
  // A leaf at depth 2: its grandparent's other child must be stored
  // with the ancestor-sibling role (it was pushed as a sibling to the
  // leaf's parent and transformed on the cascade down).
  for (sim::NodeId i = 0; i < 7; ++i) {
    if (topo.depth(i) != 2) continue;
    const auto parent = topo.parent(i);
    for (const auto uncle : topo.siblings(parent)) {
      const auto* r =
          fed.server(i).replicas().find(uncle, overlay::SummaryKind::kBranch);
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(r->spec.role, overlay::ReplicaRole::kAncestorSibling);
    }
    for (const auto sibling : topo.siblings(i)) {
      const auto* r = fed.server(i).replicas().find(
          sibling, overlay::SummaryKind::kBranch);
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(r->spec.role, overlay::ReplicaRole::kSibling);
    }
  }
  expect_structural(fed);
}

TEST(Protocol, ReplicasExpireWithoutRefresh) {
  auto params = proto_params();
  params.config.maintenance_enabled = true;  // TTL sweeps run
  params.config.heartbeat_period = sim::seconds(5);
  Federation fed(params);
  fed.add_servers(7);
  fed.start();
  fed.stabilize();
  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 7; ++i) {
    if (topo.is_leaf(i)) leaf = i;
  }
  EXPECT_GT(fed.server(leaf).replicas().size(), 0u);
  // Stop every refresh; replicas outlive one TTL at most.
  fed.set_refresh_paused(true);
  fed.advance(params.config.summary_ttl + sim::seconds(30));
  EXPECT_EQ(fed.server(leaf).replicas().size(), 0u);
  // The TTL invariant must agree: with refresh paused every surviving
  // replica anywhere would be stale, so none may survive.
  expect_structural(fed);
}

TEST(Protocol, UpdateTrafficLandsOnUpdateChannel) {
  Federation fed(proto_params());
  fed.add_servers(7);
  auto owner = fed.add_owner(3, ExportMode::kDetailedRecords);
  owner->store().insert(rec(1, 0.4));
  fed.server(3).attach_owner(owner, ExportMode::kDetailedRecords);
  fed.start();
  fed.network().reset_meters();
  fed.stabilize();
  EXPECT_GT(fed.network().meter(sim::Channel::kUpdate).bytes, 0u);
  EXPECT_EQ(fed.network().meter(sim::Channel::kQuery).bytes, 0u);

  fed.network().reset_meters();
  (void)fed.run_query(q_attr0(0.0, 1.0), 0);
  EXPECT_GT(fed.network().meter(sim::Channel::kQuery).bytes, 0u);
}

TEST(Protocol, RemoteSummaryExportIsCharged) {
  Federation fed(proto_params());
  fed.add_servers(3);
  auto owner = fed.add_owner(2, ExportMode::kSummaryOnly, /*colocated=*/false);
  owner->store().insert(rec(1, 0.4));
  fed.network().reset_meters();
  fed.server(2).attach_owner(owner, ExportMode::kSummaryOnly);
  // The export itself costs one summary-sized update message.
  const auto bytes = fed.network().meter(sim::Channel::kUpdate).bytes;
  EXPECT_GT(bytes, 0u);
  EXPECT_GE(bytes, owner->export_summary(fed.config().summary).wire_size());
}

TEST(Protocol, ColocatedExportIsFree) {
  Federation fed(proto_params());
  fed.add_servers(3);
  auto owner = fed.add_owner(2, ExportMode::kDetailedRecords);
  owner->store().insert(rec(1, 0.4));
  fed.network().reset_meters();
  fed.server(2).attach_owner(owner, ExportMode::kDetailedRecords);
  EXPECT_EQ(fed.network().total_bytes(), 0u);
}

// --- Query modes & client behaviour ---

TEST(Protocol, LocalOnlyModeDoesNotRedirect) {
  Federation fed(proto_params());
  fed.add_servers(7);
  for (sim::NodeId n = 0; n < 7; ++n) {
    auto owner = fed.add_owner(n, ExportMode::kDetailedRecords);
    owner->store().insert(rec(100 + n, 0.5));
    fed.server(n).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();
  // Everything matches this query; a kStart query contacts all seven
  // servers. The client never contacts a server twice, and contacts
  // only servers (7 total).
  const auto outcome = fed.run_query(q_attr0(0.45, 0.55), 2);
  EXPECT_EQ(outcome.matching_records, 7u);
  EXPECT_EQ(outcome.servers_contacted, 7u);
  expect_invariants(fed);
}

TEST(Protocol, CollectResultsDeliversRecords) {
  auto params = proto_params();
  params.config.collect_results = true;
  Federation fed(params);
  fed.add_servers(3);
  auto owner = fed.add_owner(2, ExportMode::kDetailedRecords);
  owner->store().insert(rec(7, 0.3));
  owner->store().insert(rec(8, 0.32));
  fed.server(2).attach_owner(owner, ExportMode::kDetailedRecords);
  fed.start();
  fed.stabilize();

  const auto outcome = fed.run_query(q_attr0(0.28, 0.34), 0);
  EXPECT_TRUE(outcome.complete);
  ASSERT_EQ(outcome.records.size(), 2u);
  EXPECT_GT(outcome.result_bytes, 0u);
  // Response time covers retrieval; forwarding latency does not.
  EXPECT_GE(outcome.response_ms, outcome.latency_ms);
  expect_invariants(fed);
}

TEST(Protocol, QueryToDeadStartServerTimesOutGracefully) {
  auto params = proto_params();
  Federation fed(params);
  fed.add_servers(4);
  fed.start();
  fed.stabilize();
  fed.server(2).fail();
  const auto outcome = fed.run_query(q_attr0(0.0, 1.0), 2);
  // The client gives up on the dead server and completes empty.
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 0u);
  // Maintenance is off, so survivors legitimately keep pointers at the
  // dead node; the structural checker must tolerate exactly that.
  expect_structural(fed);
}

TEST(Protocol, SummaryOnlyRemoteOwnerIsContactedOnlyWhenSummaryMatches) {
  Federation fed(proto_params());
  fed.add_servers(3);
  auto owner = fed.add_owner(1, ExportMode::kSummaryOnly, /*colocated=*/false);
  owner->store().insert(rec(5, 0.9));
  fed.server(1).attach_owner(owner, ExportMode::kSummaryOnly);
  fed.start();
  fed.stabilize();

  // Non-matching query: owner must not be contacted.
  const auto miss = fed.run_query(q_attr0(0.1, 0.2), 0);
  EXPECT_EQ(miss.matching_records, 0u);
  // Matching: the owner's node is one of the contacts.
  const auto hit = fed.run_query(q_attr0(0.88, 0.92), 0);
  EXPECT_EQ(hit.matching_records, 1u);
  EXPECT_GT(hit.servers_contacted, miss.servers_contacted);
  expect_invariants(fed);
}

TEST(Protocol, OverlayDisabledKeepsNoReplicas) {
  auto params = proto_params();
  params.config.overlay_enabled = false;
  Federation fed(params);
  fed.add_servers(7);
  fed.start();
  fed.stabilize();
  for (sim::NodeId i = 0; i < 7; ++i) {
    EXPECT_EQ(fed.server(i).replicas().size(), 0u) << "node " << i;
  }
  // Root-started queries still resolve.
  auto owner = fed.add_owner(5, ExportMode::kDetailedRecords);
  owner->store().insert(rec(1, 0.4));
  fed.server(5).attach_owner(owner, ExportMode::kDetailedRecords);
  fed.stabilize();
  EXPECT_EQ(fed.run_query(q_attr0(0.38, 0.42), fed.topology().root())
                .matching_records,
            1u);
  expect_invariants(fed);
}

// --- Search-scope control (§III-C) ---

TEST(Protocol, ScopedQuerySearchesExactlyTheAncestorBranch) {
  Federation fed(proto_params());
  fed.add_servers(15);  // depth-3 binary tree
  // Every server holds one record identifying it on attr0.
  for (sim::NodeId n = 0; n < 15; ++n) {
    auto owner = fed.add_owner(n, ExportMode::kDetailedRecords);
    owner->store().insert(record::ResourceRecord(
        n, owner->id(),
        {record::AttributeValue((n + 0.5) / 15.0), record::AttributeValue(0.5),
         record::AttributeValue(0.5), record::AttributeValue(0.5)}));
    fed.server(n).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 15; ++i) {
    if (topo.depth(i) == topo.height()) leaf = i;
  }
  const auto wide = q_attr0(0.0, 1.0);  // matches every server's record

  // Scope 0: only the leaf's own subtree (itself).
  const auto own = fed.run_query_scoped(wide, leaf, 0);
  EXPECT_EQ(own.matching_records, 1u);

  // Scope d: exactly the subtree of the ancestor d levels up.
  const auto path = topo.path_from_root(leaf);
  for (unsigned scope = 1; scope <= topo.depth(leaf); ++scope) {
    const auto ancestor = path[path.size() - 1 - scope];
    const auto expected = topo.subtree(ancestor).size();
    const auto outcome = fed.run_query_scoped(wide, leaf, scope);
    EXPECT_EQ(outcome.matching_records, expected) << "scope " << scope;
  }

  // Unlimited scope: the whole federation.
  EXPECT_EQ(fed.run_query(wide, leaf).matching_records, 15u);
  expect_invariants(fed);
}

TEST(Protocol, NarrowScopeContactsFewerServers) {
  Federation fed(proto_params());
  fed.add_servers(15);
  for (sim::NodeId n = 0; n < 15; ++n) {
    auto owner = fed.add_owner(n, ExportMode::kDetailedRecords);
    owner->store().insert(rec(100 + n, 0.5));
    fed.server(n).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();
  sim::NodeId leaf = 14;
  const auto narrow = fed.run_query_scoped(q_attr0(0.4, 0.6), leaf, 1);
  const auto full = fed.run_query(q_attr0(0.4, 0.6), leaf);
  EXPECT_LT(narrow.servers_contacted, full.servers_contacted);
  EXPECT_LE(narrow.latency_ms, full.latency_ms);
}

// --- Digest-suppressed propagation (incremental refresh pipeline) ---

TEST(Protocol, ZeroChurnSendsOnlyKeepaliveWaves) {
  // Two identical federations, differing only in suppression: with
  // K = 3 a zero-churn steady state sends one keepalive wave per cycle
  // where the K = 0 baseline re-pushes everything every round.
  auto suppressed_params = proto_params();  // keepalive default (3)
  auto baseline_params = proto_params();
  baseline_params.config.summary_keepalive_rounds = 0;

  Federation suppressed(suppressed_params);
  Federation baseline(baseline_params);
  for (auto* fed : {&suppressed, &baseline}) {
    fed->add_servers(7);
    auto owner = fed->add_owner(3, ExportMode::kDetailedRecords);
    owner->store().insert(rec(1, 0.4));
    fed->server(3).attach_owner(owner, ExportMode::kDetailedRecords);
    fed->start();
    fed->stabilize();
    fed->network().reset_meters();
    // One full keepalive cycle: 3 refresh rounds for every server.
    fed->advance(3 * suppressed_params.config.summary_refresh_period);
  }

  const auto sup = suppressed.network().meter(sim::Channel::kUpdate).bytes;
  const auto full = baseline.network().meter(sim::Channel::kUpdate).bytes;
  // The keepalive wave still flows (soft state stays refreshed)...
  EXPECT_GT(sup, 0u);
  // ...but the suppressed federation is far quieter than every-round
  // pushing (~1/3 of the bytes at K = 3; allow slack for phase).
  EXPECT_LT(2 * sup, full);
  EXPECT_GT(suppressed.network()
                .metrics()
                .counter("roads.summary.push_suppressed")
                .value(),
            0u);
}

TEST(Protocol, SingleChangeRepropagatesExactlyTheBranchPath) {
  // With the overlay off, parent pushes are the only update traffic;
  // a huge keepalive cadence isolates pure digest-driven propagation.
  auto params = proto_params();
  params.config.overlay_enabled = false;
  params.config.summary_keepalive_rounds = 1000;
  Federation fed(params);
  fed.add_servers(15);  // depth-3 binary tree
  for (sim::NodeId n = 0; n < 15; ++n) {
    fed.server(n).local_store().insert(rec(100 + n, (n + 0.5) / 15.0));
  }
  fed.start();
  fed.stabilize();

  // Zero churn: refresh rounds are completely silent on kUpdate.
  fed.network().reset_meters();
  fed.advance(2 * params.config.summary_refresh_period);
  EXPECT_EQ(fed.network().meter(sim::Channel::kUpdate).messages, 0u);

  // One record appears at a max-depth leaf: exactly one summary_update
  // per edge of the leaf-to-root path, nothing else.
  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 15; ++i) {
    if (topo.depth(i) == topo.height()) leaf = i;
  }
  fed.server(leaf).local_store().insert(rec(999, 0.997));
  fed.network().reset_meters();
  fed.advance((topo.depth(leaf) + 1) * params.config.summary_refresh_period);
  EXPECT_EQ(fed.network().meter(sim::Channel::kUpdate).messages,
            static_cast<std::uint64_t>(topo.depth(leaf)));
  // The change is discoverable once the path has re-propagated.
  EXPECT_EQ(fed.run_query(q_attr0(0.99, 1.0), topo.root()).matching_records,
            1u);
}

// A refresh rebuilds the store summary from the columns exactly when
// the store's version moved since the last build, and the store
// summary is shared as the local summary, never merged into.
TEST(Protocol, StoreSummaryRebuiltExactlyWhenTheStoreVersionMoved) {
  const auto params = proto_params();
  Federation fed(params);
  fed.add_servers(1);
  auto& server = fed.server(0);
  for (record::RecordId id = 1; id <= 5; ++id) {
    server.local_store().insert(rec(id, static_cast<double>(id) / 10.0));
  }
  auto& metrics = fed.network().metrics();
  const auto& rebuilds = metrics.counter("roads.summary.full_rebuilds");
  const auto& skipped = metrics.counter("roads.summary.refresh_skipped");

  server.refresh_summaries();  // the first refresh builds
  EXPECT_EQ(rebuilds.value(), 1u);
  EXPECT_EQ(skipped.value(), 0u);
  const auto built = server.local_summary();
  ASSERT_NE(built, nullptr);
  server.refresh_summaries();  // an untouched store does not
  EXPECT_EQ(rebuilds.value(), 1u);
  EXPECT_EQ(skipped.value(), 1u);
  // With no summary-only attachment the store summary is the local
  // summary: the same object, memoized digest and all.
  EXPECT_EQ(server.local_summary(), built);

  // An out-of-band rewrite, as the staleness attacks make.
  server.local_store().update(rec(3, 0.95));
  server.refresh_summaries();
  EXPECT_EQ(rebuilds.value(), 2u);
  EXPECT_EQ(skipped.value(), 1u);
  EXPECT_NE(server.local_summary(), built);
  const auto& store = server.local_store();
  const auto expected = summary::ResourceSummary::of_records(
      store.schema(), params.config.summary, store.snapshot());
  ASSERT_NE(server.local_summary(), nullptr);
  EXPECT_EQ(server.local_summary()->digest(), expected.digest());

  // A summary-only attachment merges into a copy of the store summary:
  // refreshes over the untouched store must not fold it in again.
  auto owner = fed.add_owner(0, ExportMode::kSummaryOnly);
  owner->store().insert(rec(11, 0.35));
  owner->store().insert(rec(12, 0.75));
  server.attach_owner(owner, ExportMode::kSummaryOnly);
  auto merged = expected;
  merged.merge(owner->export_summary(params.config.summary));
  for (int round = 0; round < 3; ++round) {
    server.refresh_summaries();
    EXPECT_EQ(server.local_summary()->record_count(), 5u + 2u)
        << "round " << round;
    EXPECT_EQ(server.local_summary()->digest(), merged.digest())
        << "round " << round;
  }
  EXPECT_EQ(rebuilds.value(), 2u);
}

TEST(Protocol, SuppressionKeepsReplicasAliveUnderMaintenance) {
  // K x period (30s) < ttl (35s): keepalive waves must renew replica
  // TTLs even though intermediate rounds are silent.
  auto params = proto_params();
  params.config.maintenance_enabled = true;
  params.config.heartbeat_period = sim::seconds(5);
  Federation fed(params);
  fed.add_servers(7);
  fed.start();
  fed.stabilize();
  sim::NodeId leaf = 0;
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 7; ++i) {
    if (topo.is_leaf(i)) leaf = i;
  }
  const auto before = fed.server(leaf).replicas().size();
  EXPECT_GT(before, 0u);
  // Several zero-churn TTL windows: nothing may expire.
  fed.advance(3 * params.config.summary_ttl);
  EXPECT_EQ(fed.server(leaf).replicas().size(), before);
  // Maintenance is on here, so the replica-TTL invariant is live: every
  // surviving replica must have been renewed by a keepalive wave.
  expect_invariants(fed);
}

TEST(Protocol, StoredSummaryBytesBoundedAndPositive) {
  Federation fed(proto_params());
  fed.add_servers(7);
  auto owner = fed.add_owner(0, ExportMode::kDetailedRecords);
  owner->store().insert(rec(1, 0.4));
  fed.server(0).attach_owner(owner, ExportMode::kDetailedRecords);
  fed.start();
  fed.stabilize();
  for (sim::NodeId i = 0; i < 7; ++i) {
    const auto bytes = fed.server(i).stored_summary_bytes();
    EXPECT_GT(bytes, 0u);
    // O(k log n) summaries of fixed size: 4 attrs x 40 buckets x 4B
    // ~= 800B each; far fewer than 30 summaries here.
    EXPECT_LT(bytes, 30u * 900u);
  }
  // The accounting invariant recounts these same bytes from scratch.
  expect_invariants(fed);
}

// --- Fault-path edge cases (reordering, crash/restart races) ---

// A partition heal (or reordering jitter) can deliver a heartbeat_down
// that an old, since-replaced parent sent before it died. The
// freshness guard — only the *current* parent's heartbeats are
// honoured — must drop it, or the stale root path would corrupt the
// child's ancestry.
TEST(Protocol, StaleHeartbeatDownFromOldParentIgnored) {
  auto params = proto_params();
  params.config.maintenance_enabled = true;
  params.config.heartbeat_period = sim::seconds(5);
  Federation fed(params);
  fed.add_servers(7);  // degree 2 -> depth 2
  fed.start();
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 7; ++i) {
    if (topo.depth(i) == 2) leaf = i;
  }
  const auto old_parent = topo.parent(leaf);
  const auto stale_path = fed.server(old_parent).root_path();

  // The parent dies; the leaf detects the loss and rejoins elsewhere.
  fed.server(old_parent).fail();
  fed.advance(sim::seconds(90));
  fed.stabilize(2);
  ASSERT_TRUE(fed.server(leaf).parent().has_value());
  ASSERT_NE(*fed.server(leaf).parent(), old_parent);
  const auto adopted_path = fed.server(leaf).root_path();

  // The stale heartbeat arrives late (as after a heal): ignored.
  fed.server(leaf).handle_heartbeat_down(old_parent, stale_path, {});
  EXPECT_NE(*fed.server(leaf).parent(), old_parent);
  EXPECT_EQ(fed.server(leaf).root_path().nodes(), adopted_path.nodes());
  // Had it been applied, the root-path/parent consistency invariant
  // would now fire.
  expect_invariants(fed);
}

// A crash followed by a restart within one heartbeat period races the
// timer events the pre-crash incarnation left in the event queue. The
// life-epoch guard must orphan those, or the restarted server would run
// two interleaved timer chains and double its maintenance traffic.
TEST(Protocol, RestartRacingPendingHeartbeatTimer) {
  auto params = proto_params();
  params.config.maintenance_enabled = true;
  params.config.heartbeat_period = sim::seconds(5);
  Federation fed(params);
  fed.add_servers(2);
  fed.start();
  fed.stabilize();

  sim::FaultPlan plan;
  sim::CrashWindow crash;
  crash.node = 1;
  crash.crash_at = fed.simulator().now() + sim::seconds(1);
  crash.restart_at = crash.crash_at + sim::seconds(1);  // < heartbeat period
  plan.crashes.push_back(crash);
  fed.apply_fault_plan(plan);

  // Past the window and the rejoin; then meter a quiet stretch.
  fed.advance(sim::seconds(15));
  ASSERT_TRUE(fed.server(1).alive());
  fed.network().reset_meters();
  fed.advance(sim::seconds(60));

  // 12 heartbeat periods: one heartbeat_up (1 -> 0) and one
  // heartbeat_down (0 -> 1) each. A doubled timer chain would send
  // ~36; allow slack for phase only.
  const auto msgs = fed.network().meter(sim::Channel::kMaintenance).messages;
  EXPECT_GE(msgs, 18u);
  EXPECT_LE(msgs, 30u);
  std::size_t roots = 0;
  for (auto* s : fed.servers()) {
    if (s->alive() && s->is_root()) ++roots;
  }
  EXPECT_EQ(roots, 1u);
  expect_invariants(fed);
}

// --- Replay golden: attachments, re-export and owner replies ---

// What one attachment replay leaves behind: the network's event digest
// and a fold of every query outcome's latency, response time, matches,
// result bytes and query bytes.
struct AttachmentReplay {
  std::uint64_t events = 0;
  std::uint64_t outcomes = 0;
};

// A 12-server federation with maintenance and result collection on,
// and every attachment kind: a remote summary-only owner with a sharing
// policy on every third server, a co-located summary-only owner on
// server 1 and a detailed owner on each other server. Ten queries from
// rotating start servers under two principals run before and after one
// detailed and one remote summary-only owner change their records and
// are re-exported, with three refresh periods in between.
AttachmentReplay attachment_replay(std::uint64_t seed, std::size_t threads) {
  constexpr std::size_t kServers = 12;
  FederationParams params;
  params.schema = record::Schema::uniform_numeric(2);
  params.seed = seed;
  params.threads = threads;
  params.config.max_children = 3;
  params.config.summary.histogram_buckets = 32;
  params.config.summary_refresh_period = sim::seconds(10);
  params.config.summary_ttl = sim::seconds(35);
  params.config.maintenance_enabled = true;
  params.config.heartbeat_period = sim::seconds(5);
  params.config.collect_results = true;
  Federation fed(std::move(params));
  fed.add_servers(kServers);

  util::Rng values(seed ^ 0x0a77);
  record::RecordId next_id = 1;
  const auto add_record = [&](core::ResourceOwner& owner) {
    owner.store().insert(record::ResourceRecord(
        next_id++, owner.id(),
        {record::AttributeValue(values.uniform(0.0, 1.0)),
         record::AttributeValue(values.uniform(0.0, 1.0))}));
  };
  // Principal 2 sees only even record ids at a remote owner.
  const core::SharingPolicy even_ids_for_2 =
      [](core::Principal p, const record::ResourceRecord& r) {
        return p != 2 || r.id() % 2 == 0;
      };
  std::vector<std::shared_ptr<core::ResourceOwner>> owners(kServers);
  for (sim::NodeId n = 0; n < kServers; ++n) {
    const bool remote = n % 3 == 0;
    const auto mode = remote || n == 1 ? ExportMode::kSummaryOnly
                                       : ExportMode::kDetailedRecords;
    owners[n] = fed.add_owner(n, mode, /*colocated=*/!remote);
    if (remote) owners[n]->set_policy(even_ids_for_2);
    for (int r = 0; r < 6; ++r) add_record(*owners[n]);
    fed.server(n).attach_owner(owners[n], mode);
  }
  fed.start();
  fed.stabilize();

  util::Fnv1a fold;
  util::Rng pick(seed ^ 0x9e75);
  const auto run_queries = [&](std::size_t round) {
    for (std::size_t i = 0; i < 10; ++i) {
      record::Query q;
      const double lo = pick.uniform(0.0, 0.7);
      q.add(record::Predicate::range(0, lo, lo + 0.3));
      q.add(record::Predicate::range(1, 0.1, 0.9));
      const auto start =
          static_cast<sim::NodeId>((round * 3 + i * 5) % kServers);
      const auto out = fed.run_query(q, start, core::Principal(1 + i % 2));
      fold.add(out.latency_ms);
      fold.add(out.response_ms);
      fold.add(static_cast<std::uint64_t>(out.matching_records));
      fold.add(out.result_bytes);
      fold.add(out.query_bytes);
    }
  };
  run_queries(0);

  // Server 2 holds a detailed owner, server 3 a remote summary-only
  // one: rewrite one record and add one at each, then re-export.
  for (const sim::NodeId n : {sim::NodeId{2}, sim::NodeId{3}}) {
    auto& store = owners[n]->store();
    auto changed = store.snapshot().front();
    changed.set_value(0, record::AttributeValue(values.uniform(0.0, 1.0)));
    store.update(changed);
    add_record(*owners[n]);
    fed.server(n).reexport_owner(owners[n]->id());
  }
  fed.advance(3 * fed.config().summary_refresh_period);
  run_queries(1);
  return {fed.network().event_digest(), fold.value()};
}

// Pins the attachment, re-export and owner-reply paths bit for bit at
// one and four engine threads: a change to how an owner's export is
// charged, how a server re-exports, or when a remote owner's reply and
// result batch go out moves these digests.
TEST(Protocol, AttachmentReplayMatchesGoldens) {
  constexpr AttachmentReplay kGoldens[8] = {
      {0x2334622ac32f1dfdull, 0x10b6dbb4bd7cafcfull},
      {0x166c6ff52e2cf442ull, 0x9f4b45d15b5a29b7ull},
      {0x8a1baa4bb71ba8e4ull, 0x5ccbb0d89310fcb7ull},
      {0x2845ae8028cc7776ull, 0x170f52e75cb6ba5dull},
      {0x39b572a807a85cb0ull, 0xd7a4986bc2c2dfe8ull},
      {0x248db229ee439070ull, 0xf8b36f6cbddbcb7eull},
      {0x7a598a65cd1b8dc2ull, 0x7073548cf93996f7ull},
      {0xdc79587536ad1393ull, 0x64c55539935d76ffull}};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const auto got = attachment_replay(3100 + seed, threads);
      EXPECT_EQ(got.events, kGoldens[seed].events)
          << "seed " << 3100 + seed << " threads " << threads;
      EXPECT_EQ(got.outcomes, kGoldens[seed].outcomes)
          << "seed " << 3100 + seed << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace roads

// Seed-sweep chaos tests (ISSUE PR 3): every scenario builds a
// federation, runs it through a deterministic FaultPlan drawn from the
// run seed, lets it quiesce, and then demands the full invariant sweep
// — structure, summary soundness, replica TTLs, storage accounting.
//
// The sweep is 32 seeds by default. To reproduce a single failing run:
//   CHAOS_SEED=<seed> ./tests/chaos_test --gtest_filter='<failing test>'
// and to widen or narrow the sweep (CI's extended job uses 128):
//   CHAOS_SEEDS=<count> ./tests/chaos_test
// Fault schedules replay bit-identically per seed (see ReplayDigest).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/telemetry.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "roads/federation.h"
#include "sim/fault.h"
#include "testing/invariants.h"

#include "seed_sweep.h"

namespace roads {
namespace {

using core::ExportMode;
using core::Federation;
using core::FederationParams;

std::vector<std::uint64_t> sweep_seeds() {
  return testing::sweep_seeds("CHAOS", 32, 1000);
}

FederationParams chaos_params(std::uint64_t seed) {
  FederationParams p;
  p.schema = record::Schema::uniform_numeric(2);
  p.seed = seed;
  p.config.max_children = 3;
  p.config.summary.histogram_buckets = 64;
  p.config.summary_refresh_period = sim::seconds(10);
  p.config.summary_ttl = sim::seconds(35);
  p.config.maintenance_enabled = true;
  p.config.heartbeat_period = sim::seconds(5);
  p.config.heartbeat_miss_limit = 3;
  return p;
}

/// One identifying record per server so soundness probes have ground
/// truth spread across the whole tree.
void seed_identifiable(Federation& fed, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    auto owner = fed.add_owner(static_cast<sim::NodeId>(i),
                               ExportMode::kDetailedRecords);
    owner->store().insert(record::ResourceRecord(
        i, owner->id(),
        {record::AttributeValue((i + 0.5) / static_cast<double>(n)),
         record::AttributeValue(0.5)}));
    fed.server(static_cast<sim::NodeId>(i))
        .attach_owner(owner, ExportMode::kDetailedRecords);
  }
}

std::string replay_hint(std::uint64_t seed, const sim::FaultPlan& plan) {
  std::ostringstream out;
  out << "seed " << seed << ", " << plan.describe()
      << " — replay: CHAOS_SEED=" << seed << " ./tests/chaos_test";
  return out.str();
}

void expect_converged_invariants(Federation& fed, std::uint64_t seed) {
  testing::InvariantOptions opts;
  opts.soundness_probes = 8;
  const auto report = testing::check_invariants(fed, opts);
  if (!report.ok() && fed.trace() != nullptr) {
    // Flight recorder: the failing run's last causal events, tagged
    // with the seed, so the violation can be studied (and replayed via
    // CHAOS_SEED) after the sweep has moved on.
    const std::string path =
        "FLIGHT_chaos_seed" + std::to_string(seed) + ".json";
    std::ofstream os(path);
    if (os) {
      obs::write_flight_record(*fed.trace(), os, report.to_string(), seed);
      ADD_FAILURE() << "invariant failure; flight record written to " << path;
    }
  }
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks_run, 0u);
}

std::size_t root_count(Federation& fed) {
  std::size_t roots = 0;
  for (auto* s : fed.servers()) {
    if (s->alive() && s->is_root()) ++roots;
  }
  return roots;
}

// Scenario 1: sustained message-level faults (loss + duplication +
// reordering jitter), then a heal. Soft state must converge back to a
// sound single tree for every seed.
TEST(Chaos, MessageFaultsThenHealConvergeSound) {
  for (const auto seed : sweep_seeds()) {
    Federation fed(chaos_params(seed));
    fed.add_servers(16);
    seed_identifiable(fed, 16);
    fed.start();
    fed.stabilize();

    sim::FaultPlan plan;
    plan.loss_rate = 0.05;
    plan.duplicate_rate = 0.02;
    plan.reorder_rate = 0.2;
    plan.max_jitter = sim::ms(20);
    SCOPED_TRACE(replay_hint(seed, plan));

    fed.apply_fault_plan(plan);
    fed.advance(sim::seconds(120));  // churn: misses, stale paths, rejoins
    fed.apply_fault_plan(sim::FaultPlan{});  // heal
    fed.advance(sim::seconds(120));
    fed.stabilize(3);

    ASSERT_EQ(root_count(fed), 1u);
    const auto topo = fed.topology();
    EXPECT_EQ(topo.subtree(topo.root()).size(), 16u);
    expect_converged_invariants(fed, seed);
  }
}

// Scenario 2: partition an interior node's whole subtree away, hold the
// window past the failure-detection limit, then heal. Mid-window both
// sides must have detected the split (two legitimate roots); after the
// heal the partition root's recovery retries re-merge the trees.
TEST(Chaos, SubtreePartitionHealsToSingleRoot) {
  for (const auto seed : sweep_seeds()) {
    Federation fed(chaos_params(seed));
    fed.add_servers(16);
    seed_identifiable(fed, 16);
    fed.start();
    fed.stabilize();

    const auto topo = fed.topology();
    sim::NodeId victim = 0;
    for (sim::NodeId i = 0; i < 16; ++i) {
      if (i != topo.root() && !topo.children(i).empty()) {
        victim = i;
        break;
      }
    }
    ASSERT_NE(victim, topo.root());

    sim::FaultPlan plan;
    sim::PartitionWindow window;
    window.group = topo.subtree(victim);
    window.start = fed.simulator().now() + sim::seconds(1);
    window.heal_at = window.start + sim::seconds(45);
    plan.partitions.push_back(window);
    SCOPED_TRACE(replay_hint(seed, plan));

    fed.apply_fault_plan(plan);
    fed.advance(sim::seconds(30));  // mid-window: split detected
    EXPECT_EQ(root_count(fed), 2u);
    {
      testing::InvariantOptions opts;
      opts.expect_single_root = false;  // two roots are correct here
      opts.summary_soundness = false;   // probes cannot cross the cut
      const auto report = testing::check_invariants(fed, opts);
      EXPECT_TRUE(report.ok()) << report.to_string();
    }

    fed.advance(sim::seconds(150));  // heal at +46s, then re-merge retries
    fed.stabilize(3);
    ASSERT_EQ(root_count(fed), 1u);
    const auto healed = fed.topology();
    EXPECT_EQ(healed.subtree(healed.root()).size(), 16u);
    expect_converged_invariants(fed, seed);
  }
}

// Scenario 2b (regression): a node that restarts while its rejoin seed
// sits across an active partition must not become a permanent lonely
// root. The restart handler seeds the join from the lowest-id alive
// peer; with the partition still up that join fails, and only the
// recovery-candidate retry on the maintenance timer can re-merge the
// node once the partition heals.
TEST(Chaos, RestartDuringPartitionRemergesAfterHeal) {
  for (const auto seed : sweep_seeds()) {
    Federation fed(chaos_params(seed));
    fed.add_servers(16);
    seed_identifiable(fed, 16);
    fed.start();
    fed.stabilize();

    // An interior subtree that excludes node 0: the restart seed is the
    // lowest-id alive peer, so node 0 must stay on the majority side
    // for the mid-partition join to fail.
    const auto topo = fed.topology();
    sim::NodeId victim = 0;
    std::vector<sim::NodeId> group;
    for (sim::NodeId i = 1; i < 16; ++i) {
      if (i == topo.root() || topo.children(i).empty()) continue;
      auto subtree = topo.subtree(i);
      if (std::find(subtree.begin(), subtree.end(), sim::NodeId{0}) ==
          subtree.end()) {
        victim = i;
        group = std::move(subtree);
        break;
      }
    }
    if (group.empty()) continue;  // no suitable subtree at this seed

    sim::FaultPlan plan;
    sim::PartitionWindow window;
    window.group = group;
    window.start = fed.simulator().now() + sim::seconds(1);
    window.heal_at = window.start + sim::seconds(60);
    plan.partitions.push_back(window);
    // Crash a member of the partitioned subtree and restart it while
    // the cut is still up: its join toward node 0 cannot get through.
    sim::CrashWindow crash;
    crash.node = group.back();
    crash.crash_at = window.start + sim::seconds(5);
    crash.restart_at = window.start + sim::seconds(20);
    plan.crashes.push_back(crash);
    SCOPED_TRACE(replay_hint(seed, plan));

    fed.apply_fault_plan(plan);
    fed.advance(sim::seconds(150));  // heal at +61s, then re-merge retries
    fed.stabilize(3);
    ASSERT_EQ(root_count(fed), 1u);
    const auto healed = fed.topology();
    EXPECT_EQ(healed.subtree(healed.root()).size(), 16u);
    expect_converged_invariants(fed, seed);
  }
}

// Scenario 3: coordinated crash of an interior node together with one
// of its children, restart both 30 seconds later. Orphaned descendants
// rejoin via their root paths; the restarted pair rejoins from scratch.
TEST(Chaos, CoordinatedInteriorCrashRestartRecovers) {
  for (const auto seed : sweep_seeds()) {
    Federation fed(chaos_params(seed));
    fed.add_servers(16);
    seed_identifiable(fed, 16);
    fed.start();
    fed.stabilize();

    const auto topo = fed.topology();
    sim::NodeId interior = 0;
    for (sim::NodeId i = 0; i < 16; ++i) {
      if (i != topo.root() && !topo.children(i).empty()) {
        interior = i;
        break;
      }
    }
    ASSERT_NE(interior, topo.root());
    const auto child = topo.children(interior).front();

    sim::FaultPlan plan;
    const auto crash_at = fed.simulator().now() + sim::seconds(1);
    plan.crashes.push_back({interior, crash_at, crash_at + sim::seconds(30)});
    plan.crashes.push_back({child, crash_at, crash_at + sim::seconds(30)});
    SCOPED_TRACE(replay_hint(seed, plan));

    fed.apply_fault_plan(plan);
    fed.advance(sim::seconds(150));
    fed.stabilize(3);

    for (auto* s : fed.servers()) {
      EXPECT_TRUE(s->alive()) << "server " << s->id() << " never restarted";
    }
    ASSERT_EQ(root_count(fed), 1u);
    const auto healed = fed.topology();
    EXPECT_EQ(healed.subtree(healed.root()).size(), 16u);
    expect_converged_invariants(fed, seed);
  }
}

// The determinism guarantee the whole harness rests on: the same seed
// replays the same fault schedule decision for decision, which the
// network's running event digest makes checkable bit-for-bit.
// `threads` > 1 routes the run through the sharded parallel engine
// (sim/sharded_simulator.h), which must fold the identical digest.
std::uint64_t fault_replay_digest(std::uint64_t seed,
                                  std::size_t threads = 1) {
  auto params = chaos_params(seed);
  params.threads = threads;
  Federation fed(std::move(params));
  fed.add_servers(12);
  seed_identifiable(fed, 12);
  fed.start();
  fed.stabilize();
  sim::FaultPlan plan;
  plan.loss_rate = 0.1;
  plan.duplicate_rate = 0.05;
  plan.reorder_rate = 0.3;
  plan.max_jitter = sim::ms(10);
  const auto now = fed.simulator().now();
  plan.crashes.push_back({3, now + sim::seconds(5), now + sim::seconds(25)});
  fed.apply_fault_plan(plan);
  fed.advance(sim::seconds(90));
  return fed.network().event_digest();
}

TEST(Chaos, ReplayDigestIsBitIdentical) {
  EXPECT_EQ(fault_replay_digest(42), fault_replay_digest(42));
  EXPECT_NE(fault_replay_digest(42), fault_replay_digest(43));
}

// Digests recorded from the pre-slab event engine (PR 5 swapped the
// simulator's priority queue and closure storage). A full federation
// run — join, stabilize, faults, crash/restart, 90 simulated seconds —
// must replay bit-identically on the slotted engine for all 16 seeds.
// These constants pin the protocol-visible execution order end to end;
// they only change if replay semantics change, never for a pure
// performance change. (Seeds 2011 and 2015 were re-recorded when
// RoadsServer::restart started keeping its seed as a recovery contact
// — a deliberate protocol fix; see RestartDuringPartitionRemergesAfterHeal.)
TEST(Chaos, ReplayDigestsMatchPreSlabEngineGoldens) {
  constexpr std::uint64_t kGoldens[16] = {
      0xe5f31f052b32e72cull, 0xf013b34fbb93c45aull, 0x387577e53635e548ull,
      0x0d186b3b4fabe062ull, 0x3c3d30a984ad31eaull, 0xa60f8860cd41640bull,
      0x3e72995e1d8471dfull, 0xf73f14fb63a4e407ull, 0x4b79b0b89349cfd8ull,
      0x4d65408605d4222dull, 0x4e6ea180b41339dfull, 0x689dd5bdc7ebc6e6ull,
      0x940a2e6e346f33beull, 0x2a74ab7910d77eeaull, 0xc8442dd92104ea4dull,
      0x000bf957b3d32940ull};
  for (std::uint64_t seed = 2000; seed < 2016; ++seed) {
    EXPECT_EQ(fault_replay_digest(seed), kGoldens[seed - 2000])
        << "federation replay diverged from the pre-slab engine at seed "
        << seed;
  }
}

// PR 7's correctness gate at federation scale, coin-mode leg: the
// fault_replay_digest plan carries loss/dup/reorder coins, so the
// sharded engine degrades to exact micro-stepping — and must still
// reproduce the pre-slab goldens for every seed, through a full join /
// stabilize / crash-restart / 90-second run.
TEST(Chaos, ShardedReplayMatchesPreSlabGoldens) {
  constexpr std::uint64_t kGoldens[16] = {
      0xe5f31f052b32e72cull, 0xf013b34fbb93c45aull, 0x387577e53635e548ull,
      0x0d186b3b4fabe062ull, 0x3c3d30a984ad31eaull, 0xa60f8860cd41640bull,
      0x3e72995e1d8471dfull, 0xf73f14fb63a4e407ull, 0x4b79b0b89349cfd8ull,
      0x4d65408605d4222dull, 0x4e6ea180b41339dfull, 0x689dd5bdc7ebc6e6ull,
      0x940a2e6e346f33beull, 0x2a74ab7910d77eeaull, 0xc8442dd92104ea4dull,
      0x000bf957b3d32940ull};
  for (std::uint64_t seed = 2000; seed < 2016; ++seed) {
    EXPECT_EQ(fault_replay_digest(seed, 2), kGoldens[seed - 2000])
        << "2-shard federation replay diverged at seed " << seed;
  }
  // A deeper shard count over a subset keeps the sweep affordable while
  // still covering >1 worker per core class.
  for (std::uint64_t seed = 2000; seed < 2004; ++seed) {
    EXPECT_EQ(fault_replay_digest(seed, 8), kGoldens[seed - 2000])
        << "8-shard federation replay diverged at seed " << seed;
  }
}

// Parallel-window leg: partitions and crashes only — no per-message
// coins, so the windows genuinely run the shards concurrently and the
// barrier merge carries the full protocol traffic (summary pushes,
// heartbeats, rejoins) across shard boundaries.
std::uint64_t partition_replay_digest(std::uint64_t seed,
                                      std::size_t threads) {
  auto params = chaos_params(seed);
  params.threads = threads;
  Federation fed(std::move(params));
  fed.add_servers(12);
  seed_identifiable(fed, 12);
  fed.start();
  fed.stabilize();
  sim::FaultPlan plan;
  const auto now = fed.simulator().now();
  sim::PartitionWindow window;
  window.group = {1, 4, 5};
  window.start = now + sim::seconds(5);
  window.heal_at = now + sim::seconds(40);
  plan.partitions.push_back(window);
  plan.crashes.push_back({3, now + sim::seconds(10), now + sim::seconds(30)});
  fed.apply_fault_plan(plan);
  fed.advance(sim::seconds(90));
  return fed.network().event_digest();
}

TEST(Chaos, ShardedPartitionCrashReplayIsBitIdentical) {
  for (std::uint64_t seed = 2000; seed < 2016; ++seed) {
    const auto sequential = partition_replay_digest(seed, 1);
    EXPECT_EQ(partition_replay_digest(seed, 2), sequential)
        << "2-shard partition/crash replay diverged at seed " << seed;
  }
  for (std::uint64_t seed = 2000; seed < 2004; ++seed) {
    EXPECT_EQ(partition_replay_digest(seed, 8),
              partition_replay_digest(seed, 1))
        << "8-shard partition/crash replay diverged at seed " << seed;
  }
}

// Same guarantee one level up: the experiment driver's headline metrics
// (latency, traffic, matches, storage) recorded on the pre-slab engine,
// compared exactly — doubles included — because the event order feeding
// them is deterministic.
TEST(Chaos, ExperimentMetricsMatchPreSlabEngineGoldens) {
  exp::ExpConfig cfg;
  cfg.nodes = 24;
  cfg.records_per_node = 40;
  cfg.attributes = 4;
  cfg.query_dimensions = 2;
  cfg.queries = 25;
  cfg.runs = 1;
  cfg.max_children = 3;
  cfg.histogram_buckets = 64;

  const auto m5 = exp::run_roads_once(cfg, 5);
  EXPECT_DOUBLE_EQ(m5.latency_avg_ms, 625.96352000000002);
  EXPECT_DOUBLE_EQ(m5.latency_p90_ms, 723.39300000000003);
  EXPECT_DOUBLE_EQ(m5.query_bytes_avg, 1367.8000000000002);
  EXPECT_DOUBLE_EQ(m5.update_bytes_per_round, 83360.0);
  EXPECT_DOUBLE_EQ(m5.matches_avg, 54.280000000000001);
  EXPECT_DOUBLE_EQ(m5.queries_completed, 25.0);
  EXPECT_DOUBLE_EQ(m5.max_storage_bytes, 14352.0);

  const auto m6 = exp::run_roads_once(cfg, 6);
  EXPECT_DOUBLE_EQ(m6.latency_avg_ms, 564.94468000000006);
  EXPECT_DOUBLE_EQ(m6.latency_p90_ms, 667.06500000000005);
  EXPECT_DOUBLE_EQ(m6.query_bytes_avg, 1514.9999999999998);
  EXPECT_DOUBLE_EQ(m6.update_bytes_per_round, 83360.0);
  EXPECT_DOUBLE_EQ(m6.matches_avg, 65.439999999999998);
  EXPECT_DOUBLE_EQ(m6.queries_completed, 25.0);
  EXPECT_DOUBLE_EQ(m6.max_storage_bytes, 14352.0);
}

// And through the sharded engine: a fault-free experiment run is pure
// parallel-window territory (no coins, no global fault events), and
// every headline double must still match the sequential goldens
// exactly — the strongest statement that the windows reorder nothing.
TEST(Chaos, ShardedExperimentMetricsMatchGoldensExactly) {
  exp::ExpConfig cfg;
  cfg.nodes = 24;
  cfg.records_per_node = 40;
  cfg.attributes = 4;
  cfg.query_dimensions = 2;
  cfg.queries = 25;
  cfg.runs = 1;
  cfg.max_children = 3;
  cfg.histogram_buckets = 64;
  cfg.threads = 4;

  const auto m5 = exp::run_roads_once(cfg, 5);
  EXPECT_DOUBLE_EQ(m5.latency_avg_ms, 625.96352000000002);
  EXPECT_DOUBLE_EQ(m5.latency_p90_ms, 723.39300000000003);
  EXPECT_DOUBLE_EQ(m5.query_bytes_avg, 1367.8000000000002);
  EXPECT_DOUBLE_EQ(m5.update_bytes_per_round, 83360.0);
  EXPECT_DOUBLE_EQ(m5.matches_avg, 54.280000000000001);
  EXPECT_DOUBLE_EQ(m5.queries_completed, 25.0);
  EXPECT_DOUBLE_EQ(m5.max_storage_bytes, 14352.0);

  const auto m6 = exp::run_roads_once(cfg, 6);
  EXPECT_DOUBLE_EQ(m6.latency_avg_ms, 564.94468000000006);
  EXPECT_DOUBLE_EQ(m6.latency_p90_ms, 667.06500000000005);
  EXPECT_DOUBLE_EQ(m6.query_bytes_avg, 1514.9999999999998);
  EXPECT_DOUBLE_EQ(m6.matches_avg, 65.439999999999998);
  EXPECT_DOUBLE_EQ(m6.queries_completed, 25.0);
}

// Negative test: the checker must actually reject a broken federation.
// A silent crash leaves the classic inconsistencies — a parent
// retaining a dead child, children pointing at a dead parent — until
// maintenance repairs them.
TEST(Chaos, CheckerRejectsCorruptedFederation) {
  Federation fed(chaos_params(7));
  fed.add_servers(12);
  seed_identifiable(fed, 12);
  fed.start();
  fed.stabilize();
  {
    const auto clean = testing::check_invariants(fed);
    ASSERT_TRUE(clean.ok()) << clean.to_string();
  }

  const auto topo = fed.topology();
  sim::NodeId interior = 0;
  for (sim::NodeId i = 0; i < 12; ++i) {
    if (i != topo.root() && !topo.children(i).empty()) {
      interior = i;
      break;
    }
  }
  ASSERT_NE(interior, topo.root());
  fed.server(interior).fail();

  // Checked immediately — before any heartbeat can notice — the
  // structure is provably inconsistent.
  testing::InvariantOptions opts;
  opts.summary_soundness = false;
  const auto broken = testing::check_invariants(fed, opts);
  EXPECT_FALSE(broken.ok());
  EXPECT_GT(broken.violations.size(), 0u) << broken.to_string();

  // And once maintenance has run its course, the same checker passes.
  fed.advance(sim::seconds(120));
  fed.stabilize(2);
  expect_converged_invariants(fed, 7);
}

// --- Telemetry under chaos -------------------------------------------
//
// The timeline's health probes watched through a disruption: replica
// staleness must spike while a subtree is partitioned away (soft state
// of the far side ages with nothing refreshing it), drop back under the
// TTL once the cut heals, and the convergence detector must measure a
// finite time-to-recover from the de-converge/re-converge pair.

struct RecoveryObservation {
  double spike_s = 0.0;  ///< max replica staleness inside the cut window
  double tail_s = 0.0;   ///< replica staleness in the final window
  double converged_at_s = -1.0;
  double ttr_s = -1.0;  ///< re-convergence delay from partition start
  std::string csv;
};

RecoveryObservation run_recovery_scenario(std::uint64_t seed) {
  auto params = chaos_params(seed);
  // Keepalive every round: steady-state replica ages cycle within one
  // 10 s refresh period, so an outage-driven spike is unambiguous.
  params.config.summary_keepalive_rounds = 1;
  Federation fed(std::move(params));
  fed.add_servers(16);
  seed_identifiable(fed, 16);
  fed.start();

  exp::TelemetryOptions topts;
  topts.timeline.window = sim::seconds(5);
  // Tighter than the 35 s TTL: windows during the outage must go
  // unhealthy so the detector records a de-converge + re-converge.
  topts.staleness_bound = sim::seconds(20);
  topts.audit_query_dimensions = 2;  // the chaos schema has 2 attributes
  topts.audit_seed = seed ^ 0x0b5e;
  auto timeline = exp::attach_timeline(fed, topts);
  exp::start_timeline(fed, *timeline);
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId victim = 0;
  for (sim::NodeId i = 0; i < 16; ++i) {
    if (i != topo.root() && !topo.children(i).empty()) {
      victim = i;
      break;
    }
  }

  sim::FaultPlan plan;
  sim::PartitionWindow window;
  window.group = topo.subtree(victim);
  window.start = fed.simulator().now() + sim::seconds(1);
  // Longer than the TTL: cross-cut replicas age past any healthy bound
  // before the sweep can clear them.
  window.heal_at = window.start + sim::seconds(45);
  plan.partitions.push_back(window);
  fed.apply_fault_plan(plan);
  fed.advance(sim::seconds(240));
  fed.stabilize(3);

  RecoveryObservation seen;
  for (const auto& w : timeline->windows()) {
    if (w.end > window.start && w.start < window.heal_at) {
      seen.spike_s = std::max(
          seen.spike_s, w.value("probe.staleness.replica.max_s"));
    }
  }
  if (!timeline->windows().empty()) {
    seen.tail_s =
        timeline->windows().back().value("probe.staleness.replica.max_s");
  }
  if (const auto first = timeline->first_converged_at()) {
    seen.converged_at_s = sim::to_seconds(*first);
  }
  if (const auto again = timeline->converged_after(window.start)) {
    seen.ttr_s = sim::to_seconds(*again - window.start);
  }
  std::ostringstream csv;
  timeline->write_csv(csv);
  seen.csv = csv.str();
  return seen;
}

// Scenario 5: staleness spike + measured recovery for every sweep seed.
// The RECOVERY lines are greppable; CI folds them into the job summary.
TEST(Chaos, TelemetryStalenessSpikeAndMeasuredRecovery) {
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " — replay: CHAOS_SEED=" + std::to_string(seed) +
                 " ./tests/chaos_test");
    const auto seen = run_recovery_scenario(seed);
    // During the cut the far side's replicas age well past twice the
    // refresh period; afterwards the sweep + fresh pushes pull the
    // series back under the TTL (and in fact under the health bound).
    EXPECT_GT(seen.spike_s, 20.0);
    EXPECT_LT(seen.tail_s, 35.0);
    EXPECT_GE(seen.converged_at_s, 0.0) << "never converged pre-fault";
    ASSERT_GE(seen.ttr_s, 0.0) << "never re-converged after the heal";
    std::printf("RECOVERY seed=%llu ttr_s=%.1f converged_at_s=%.1f\n",
                static_cast<unsigned long long>(seed), seen.ttr_s,
                seen.converged_at_s);
  }
}

// The detector is part of the deterministic replay surface: the same
// seed must reproduce the same warm-up cutoff, the same time-to-recover,
// and a byte-identical exported timeline.
TEST(Chaos, TelemetryRecoveryIsDeterministic) {
  const auto seed = sweep_seeds().front();
  const auto first = run_recovery_scenario(seed);
  const auto second = run_recovery_scenario(seed);
  EXPECT_EQ(first.converged_at_s, second.converged_at_s);
  EXPECT_EQ(first.ttr_s, second.ttr_s);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_FALSE(first.csv.empty());
}

// The timeline's one queue-depth series, probe.queue.window_max_depth,
// sums every engine's watermark. Under the sharded engine the protocol
// timers and deliveries live in the shard heaps, not in the coordinator
// heap the sampler ticks on, so every window must read more than the
// coordinator heap alone ever held.
TEST(Chaos, TelemetryQueueDepthProbeCountsShardEngines) {
  auto params = chaos_params(sweep_seeds().front());
  params.threads = 4;
  Federation fed(std::move(params));
  ASSERT_NE(fed.sharded(), nullptr);
  ASSERT_EQ(fed.sharded()->shard_count(), 4u);
  fed.add_servers(16);
  seed_identifiable(fed, 16);
  fed.start();

  exp::TelemetryOptions topts;
  topts.timeline.window = sim::seconds(5);
  topts.audit_query_dimensions = 2;  // the chaos schema has 2 attributes
  auto timeline = exp::attach_timeline(fed, topts);
  // start_timeline picks the sharded engine. Started on the coordinator
  // alone, the sampler would close one window and go inert: it re-arms
  // only while events are pending, and the coordinator heap holds
  // nothing but the sampler's own tick.
  exp::start_timeline(fed, *timeline);
  fed.stabilize();

  // Stabilization spans at least two refresh periods plus 5 s.
  ASSERT_GE(timeline->windows().size(), 5u);
  const auto coordinator_max =
      static_cast<double>(fed.simulator().stats().max_depth);
  for (const auto& w : timeline->windows()) {
    EXPECT_GT(w.value("probe.queue.window_max_depth"), coordinator_max)
        << "window " << w.index;
  }
}

}  // namespace
}  // namespace roads

// Tests for the discrete-event substrate: simulator ordering, the 5-D
// delay space, and the metered network with failure injection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/delay_space.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "util/rng.h"

#include "seed_sweep.h"

namespace roads::sim {
namespace {

// --- Simulator ---

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(20, [&] { ++count; });
  sim.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, RunStepsLimits) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(sim.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

// --- DelaySpace ---

TEST(DelaySpace, DeterministicPerSeed) {
  DelaySpace a(50, util::Rng(9));
  DelaySpace b(50, util::Rng(9));
  for (NodeId i = 0; i < 50; ++i) {
    EXPECT_EQ(a.latency(0, i), b.latency(0, i));
  }
}

TEST(DelaySpace, SymmetricAndZeroSelf) {
  DelaySpace space(30, util::Rng(4));
  for (NodeId i = 0; i < 30; ++i) {
    EXPECT_EQ(space.latency(i, i), 0);
    for (NodeId j = 0; j < 30; ++j) {
      EXPECT_EQ(space.latency(i, j), space.latency(j, i));
    }
  }
}

TEST(DelaySpace, LatenciesHaveInternetScale) {
  DelaySpace space(100, util::Rng(5));
  double sum = 0;
  int pairs = 0;
  for (NodeId i = 0; i < 100; ++i) {
    for (NodeId j = i + 1; j < 100; ++j) {
      const auto l = space.latency(i, j);
      EXPECT_GE(l, 5 * kMillisecond);  // base latency floor
      EXPECT_LE(l, 300 * kMillisecond);
      sum += static_cast<double>(l);
      ++pairs;
    }
  }
  const double mean_ms = sum / pairs / 1000.0;
  EXPECT_GT(mean_ms, 50.0);
  EXPECT_LT(mean_ms, 160.0);
}

TEST(DelaySpace, LinkExtrasAreDirectedAndHealable) {
  DelaySpace space(8, util::Rng(7));
  const Time base01 = space.latency(0, 1);
  const Time base10 = space.latency(1, 0);
  space.set_link_extra(0, 1, 40 * kMillisecond);
  // Asymmetric: only the overridden direction slows down.
  EXPECT_EQ(space.latency(0, 1), base01 + 40 * kMillisecond);
  EXPECT_EQ(space.latency(1, 0), base10);
  EXPECT_EQ(space.link_extra_count(), 1u);
  // Extras never lower a link, so min_latency() stays a valid
  // conservative lookahead for the sharded engine.
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      if (i != j) {
        EXPECT_GE(space.latency(i, j), space.min_latency());
      }
    }
  }
  // Setting an extra of 0 removes that override; clear heals all.
  space.set_link_extra(0, 1, 0);
  EXPECT_EQ(space.latency(0, 1), base01);
  space.set_link_extra(2, 3, 5 * kMillisecond);
  space.set_link_extra(3, 2, 90 * kMillisecond);
  space.clear_link_extras();
  EXPECT_EQ(space.link_extra_count(), 0u);
  EXPECT_EQ(space.latency(2, 3), space.latency(3, 2));
}

TEST(DelaySpace, AddNodeExtends) {
  DelaySpace space(2, util::Rng(6));
  const auto id = space.add_node();
  EXPECT_EQ(id, 2u);
  EXPECT_GT(space.latency(0, 2), 0);
  EXPECT_THROW(space.latency(0, 99), std::out_of_range);
}

// --- Network ---

struct NetFixture {
  Simulator sim;
  DelaySpace space{10, util::Rng(7)};
  Network net{sim, space, util::Rng(8)};
};

TEST(Network, DeliversAfterLatency) {
  NetFixture f;
  bool delivered = false;
  Time at = 0;
  f.net.send(0, 1, 100, Channel::kQuery, [&] {
    delivered = true;
    at = f.sim.now();
  });
  f.sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(at, f.space.latency(0, 1));
}

TEST(Network, MetersPerChannel) {
  NetFixture f;
  f.net.send(0, 1, 100, Channel::kQuery, [] {});
  f.net.send(0, 2, 50, Channel::kUpdate, [] {});
  f.net.send(0, 3, 25, Channel::kUpdate, [] {});
  EXPECT_EQ(f.net.meter(Channel::kQuery).bytes, 100u);
  EXPECT_EQ(f.net.meter(Channel::kQuery).messages, 1u);
  EXPECT_EQ(f.net.meter(Channel::kUpdate).bytes, 75u);
  EXPECT_EQ(f.net.meter(Channel::kUpdate).messages, 2u);
  EXPECT_EQ(f.net.total_bytes(), 175u);
  EXPECT_EQ(f.net.total_messages(), 3u);
  f.net.reset_meters();
  EXPECT_EQ(f.net.total_bytes(), 0u);
}

TEST(Network, BulkCountsLogicalMessages) {
  NetFixture f;
  int deliveries = 0;
  f.net.send_bulk(0, 1, 500, 64000, Channel::kUpdate,
                  [&] { ++deliveries; });
  f.sim.run();
  EXPECT_EQ(deliveries, 1);  // one event
  EXPECT_EQ(f.net.meter(Channel::kUpdate).messages, 500u);
  EXPECT_EQ(f.net.meter(Channel::kUpdate).bytes, 64000u);
}

TEST(Network, DeadReceiverDropsDelivery) {
  NetFixture f;
  bool delivered = false;
  f.net.set_node_up(1, false);
  f.net.send(0, 1, 10, Channel::kQuery, [&] { delivered = true; });
  f.sim.run();
  EXPECT_FALSE(delivered);
  // Bytes were still spent by the sender.
  EXPECT_EQ(f.net.meter(Channel::kQuery).bytes, 10u);
}

TEST(Network, DeadSenderEmitsNothing) {
  NetFixture f;
  bool delivered = false;
  f.net.set_node_up(0, false);
  f.net.send(0, 1, 10, Channel::kQuery, [&] { delivered = true; });
  f.sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(f.net.meter(Channel::kQuery).bytes, 0u);
}

TEST(Network, ReceiverDiesInFlight) {
  NetFixture f;
  bool delivered = false;
  f.net.send(0, 1, 10, Channel::kQuery, [&] { delivered = true; });
  // Kill the receiver before the message lands.
  f.sim.schedule_at(1, [&] { f.net.set_node_up(1, false); });
  f.sim.run();
  EXPECT_FALSE(delivered);
}

TEST(Network, NodeCanComeBackUp) {
  NetFixture f;
  f.net.set_node_up(1, false);
  f.net.set_node_up(1, true);
  bool delivered = false;
  f.net.send(0, 1, 10, Channel::kQuery, [&] { delivered = true; });
  f.sim.run();
  EXPECT_TRUE(delivered);
}

TEST(Network, LossRateDropsSomeMessages) {
  NetFixture f;
  f.net.set_loss_rate(0.5);
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    f.net.send(0, 1, 1, Channel::kQuery, [&] { ++delivered; });
  }
  f.sim.run();
  EXPECT_GT(delivered, 350);
  EXPECT_LT(delivered, 650);
}

TEST(Network, SelfSendIsImmediate) {
  NetFixture f;
  Time at = -1;
  f.net.send(3, 3, 10, Channel::kQuery, [&] { at = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(at, 0);
}

// --- Fault plans (sim/fault.h) ---

TEST(Fault, PlanDescribeAndEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.any_message_faults());
  plan.loss_rate = 0.02;
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.any_message_faults());
  EXPECT_NE(plan.describe().find("loss=0.02"), std::string::npos);
}

// Regression: drops used to be decided AFTER the channel meters were
// charged, inflating the paper's overhead metrics with bytes that never
// went on the wire.
TEST(Fault, SendTimeDropsAreNotChargedToChannels) {
  NetFixture f;
  f.net.set_loss_rate(1.0);
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    f.net.send(0, 1, 7, Channel::kQuery, [&] { ++delivered; });
  }
  f.sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.net.meter(Channel::kQuery).messages, 0u);
  EXPECT_EQ(f.net.meter(Channel::kQuery).bytes, 0u);
  EXPECT_EQ(f.net.dropped_messages(), 100u);
  EXPECT_EQ(f.net.metrics().counter("sim.fault.dropped").value(), 100u);
}

TEST(Fault, LossAccountingConservesMessages) {
  NetFixture f;
  f.net.set_loss_rate(0.4);
  for (int i = 0; i < 1000; ++i) {
    f.net.send(0, 1, 1, Channel::kQuery, [] {});
  }
  f.sim.run();
  // Every send is either charged to the channel or metered as a fault
  // drop — never both, never neither.
  const auto charged = f.net.meter(Channel::kQuery).messages;
  const auto dropped = f.net.metrics().counter("sim.fault.dropped").value();
  EXPECT_EQ(charged + dropped, 1000u);
  EXPECT_GT(dropped, 250u);
  EXPECT_LT(dropped, 550u);
}

TEST(Fault, DuplicationDeliversAndChargesTwice) {
  NetFixture f;
  FaultPlan plan;
  plan.duplicate_rate = 1.0;
  f.net.apply_fault_plan(plan);
  int delivered = 0;
  f.net.send(0, 1, 10, Channel::kUpdate, [&] { ++delivered; });
  f.sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(f.net.meter(Channel::kUpdate).messages, 2u);
  EXPECT_EQ(f.net.meter(Channel::kUpdate).bytes, 20u);
  EXPECT_EQ(f.net.metrics().counter("sim.fault.duplicated").value(), 1u);
}

TEST(Fault, ReorderingJitterIsBounded) {
  NetFixture f;
  FaultPlan plan;
  plan.reorder_rate = 1.0;
  plan.max_jitter = 5 * kMillisecond;
  f.net.apply_fault_plan(plan);
  const Time base = f.space.latency(0, 1);
  std::vector<Time> arrivals;
  for (int i = 0; i < 50; ++i) {
    f.net.send(0, 1, 1, Channel::kQuery,
               [&] { arrivals.push_back(f.sim.now()); });
  }
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 50u);
  for (const auto t : arrivals) {
    EXPECT_GT(t, base);  // jitter is at least 1us
    EXPECT_LE(t, base + 5 * kMillisecond);
  }
  EXPECT_EQ(f.net.metrics().counter("sim.fault.reordered").value(), 50u);
}

TEST(Fault, PartitionWindowCutsThenHeals) {
  NetFixture f;
  FaultPlan plan;
  PartitionWindow w;
  w.group = {1};
  w.start = 10 * kMillisecond;
  w.heal_at = 500 * kMillisecond;
  plan.partitions.push_back(w);
  f.net.apply_fault_plan(plan);
  int cut = 0, same_side = 0, healed = 0;
  f.sim.schedule_at(20 * kMillisecond, [&] {
    EXPECT_TRUE(f.net.partitioned(0, 1));
    EXPECT_FALSE(f.net.partitioned(2, 3));  // both outside the group
    f.net.send(0, 1, 1, Channel::kQuery, [&] { ++cut; });
    f.net.send(2, 3, 1, Channel::kQuery, [&] { ++same_side; });
  });
  f.sim.schedule_at(600 * kMillisecond, [&] {
    EXPECT_FALSE(f.net.partitioned(0, 1));
    f.net.send(0, 1, 1, Channel::kQuery, [&] { ++healed; });
  });
  f.sim.run();
  EXPECT_EQ(cut, 0);
  EXPECT_EQ(same_side, 1);
  EXPECT_EQ(healed, 1);
  EXPECT_GE(f.net.metrics().counter("sim.fault.partitioned").value(), 1u);
}

TEST(Fault, NodeAndLinkLossAreDirectional) {
  NetFixture f;
  FaultPlan plan;
  plan.node_loss.push_back({1, 1.0});     // node loss hits both directions
  plan.link_loss.push_back({2, 3, 1.0});  // link loss only from->to
  f.net.apply_fault_plan(plan);
  int to_node = 0, from_node = 0, forward = 0, reverse = 0;
  f.net.send(0, 1, 1, Channel::kQuery, [&] { ++to_node; });
  f.net.send(1, 0, 1, Channel::kQuery, [&] { ++from_node; });
  f.net.send(2, 3, 1, Channel::kQuery, [&] { ++forward; });
  f.net.send(3, 2, 1, Channel::kQuery, [&] { ++reverse; });
  f.sim.run();
  EXPECT_EQ(to_node, 0);
  EXPECT_EQ(from_node, 0);
  EXPECT_EQ(forward, 0);
  EXPECT_EQ(reverse, 1);
}

// A crash window kills a message already on the wire (the charge
// stands, the delivery event fires into a dead receiver) and announces
// both transitions to the protocol layer.
TEST(Fault, CrashWindowDropsInFlightAndSignalsTransitions) {
  NetFixture f;
  std::vector<std::pair<NodeId, bool>> transitions;
  f.net.set_node_transition_handler(
      [&](NodeId n, bool up) { transitions.emplace_back(n, up); });
  FaultPlan plan;
  CrashWindow c;
  c.node = 1;
  c.crash_at = 1;  // well inside the 0->1 flight time (>= 5ms)
  c.restart_at = 400 * kMillisecond;
  plan.crashes.push_back(c);
  f.net.apply_fault_plan(plan);
  int in_flight = 0, after = 0;
  f.net.send(0, 1, 5, Channel::kQuery, [&] { ++in_flight; });
  f.sim.schedule_at(500 * kMillisecond, [&] {
    f.net.send(0, 1, 5, Channel::kQuery, [&] { ++after; });
  });
  f.sim.run();
  EXPECT_EQ(in_flight, 0);
  EXPECT_EQ(after, 1);
  EXPECT_EQ(f.net.meter(Channel::kQuery).bytes, 10u);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], (std::pair<NodeId, bool>{1, false}));
  EXPECT_EQ(transitions[1], (std::pair<NodeId, bool>{1, true}));
}

TEST(Fault, NewPlanOrphansScheduledWindows) {
  NetFixture f;
  FaultPlan plan;
  PartitionWindow w;
  w.group = {1};
  w.start = 100 * kMillisecond;
  w.heal_at = 0;  // never heals on its own
  plan.partitions.push_back(w);
  f.net.apply_fault_plan(plan);
  // Replacing the plan before the window opens must orphan it.
  f.sim.schedule_at(50 * kMillisecond,
                    [&] { f.net.apply_fault_plan(FaultPlan{}); });
  int delivered = 0;
  f.sim.schedule_at(200 * kMillisecond, [&] {
    EXPECT_FALSE(f.net.partitioned(0, 1));
    f.net.send(0, 1, 1, Channel::kQuery, [&] { ++delivered; });
  });
  f.sim.run();
  EXPECT_EQ(delivered, 1);
}

// The replay guarantee behind the chaos tests: equal seeds and equal
// schedules fold to the same event digest, different seeds do not.
std::uint64_t run_fault_schedule(std::uint64_t net_seed) {
  Simulator sim;
  DelaySpace space(10, util::Rng(7));
  Network net(sim, space, util::Rng(net_seed));
  FaultPlan plan;
  plan.loss_rate = 0.3;
  plan.duplicate_rate = 0.2;
  plan.reorder_rate = 0.5;
  plan.max_jitter = 5 * kMillisecond;
  PartitionWindow w;
  w.group = {1};
  w.start = 50 * kMillisecond;
  w.heal_at = 150 * kMillisecond;
  plan.partitions.push_back(w);
  CrashWindow c;
  c.node = 2;
  c.crash_at = 60 * kMillisecond;
  c.restart_at = 120 * kMillisecond;
  plan.crashes.push_back(c);
  net.apply_fault_plan(plan);
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(i * kMillisecond, [&net, i] {
      net.send(static_cast<NodeId>(i % 5), static_cast<NodeId>((i + 1) % 5),
               10 + static_cast<std::uint64_t>(i), Channel::kQuery, [] {});
    });
  }
  sim.run();
  return net.event_digest();
}

TEST(Fault, DigestReplaysBitIdentically) {
  EXPECT_EQ(run_fault_schedule(8), run_fault_schedule(8));
  EXPECT_NE(run_fault_schedule(8), run_fault_schedule(9));
}

// Digests recorded from the pre-slab engine (std::function closures,
// binary heap + hash-set cancellation) before the slotted engine
// landed. The slotted engine must reproduce every one bit-for-bit:
// this pins the (time, insertion seq) execution order across the
// loss/duplication/reorder/partition/crash schedule above for 16
// seeds. If an engine change breaks one of these, it changed replay
// semantics, not just performance.
TEST(Fault, DigestsMatchPreSlabEngineGoldens) {
  constexpr std::uint64_t kGoldens[16] = {
      0xbdbbeab6ef2e9ec9ull, 0xd70faced3ee5ed53ull, 0x40da947f16046ad8ull,
      0xef4bb5b87344c6deull, 0xd018ec60e8846a8full, 0x5595a3957c2ef56dull,
      0x8b91b5912130ccf6ull, 0x3dc629c45821e51cull, 0x0d267b3f23057b5bull,
      0xa9003e7a623981f0ull, 0x3a3d011a48ab9b35ull, 0x978834b5e7851b9full,
      0x06db511d564b981cull, 0x05a75ce0391bbfbaull, 0xa9af1a3847fee4adull,
      0x5c5e5e01be6c1c29ull};
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    EXPECT_EQ(run_fault_schedule(seed), kGoldens[seed - 100])
        << "replay digest diverged from the pre-slab engine at seed "
        << seed;
  }
}

// --- Sharded parallel engine ---

// The conservative lookahead the sharded engine relies on: no sampled
// pair of distinct nodes may sit below DelaySpace::min_latency(), no
// matter where the embedding placed them — including nodes appended
// after construction.
TEST(DelaySpace, MinLatencyLowerBoundsEveryDistinctPair) {
  DelaySpace space(48, util::Rng(123));
  const Time floor = space.min_latency();
  EXPECT_GT(floor, 0);
  space.add_node();
  space.add_node();
  const auto n = static_cast<NodeId>(space.node_count());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) {
        EXPECT_EQ(space.latency(a, b), 0);
      } else {
        EXPECT_GE(space.latency(a, b), floor)
            << "pair (" << a << ", " << b << ") undercuts the lookahead";
      }
    }
  }
}

// The fault schedule of run_fault_schedule, driven through either
// engine. `shards` == 0 is the sequential oracle; `message_coins`
// toggles the per-message loss/dup/reorder coins (with them the
// sharded engine must degrade to exact micro-stepping; without them
// the partition/crash windows leave the parallel window path live).
std::uint64_t run_fault_schedule_engine(std::uint64_t net_seed,
                                        std::size_t shards,
                                        bool message_coins) {
  Simulator sim;
  DelaySpace space(10, util::Rng(7));
  Network net(sim, space, util::Rng(net_seed));
  std::unique_ptr<ShardedSimulator> sharded;
  if (shards > 0) {
    sharded = std::make_unique<ShardedSimulator>(sim, shards);
    sharded->set_lookahead(space.min_latency());
    net.attach_sharded(sharded.get());
  }
  FaultPlan plan;
  if (message_coins) {
    plan.loss_rate = 0.3;
    plan.duplicate_rate = 0.2;
    plan.reorder_rate = 0.5;
    plan.max_jitter = 5 * kMillisecond;
  }
  PartitionWindow w;
  w.group = {1};
  w.start = 50 * kMillisecond;
  w.heal_at = 150 * kMillisecond;
  plan.partitions.push_back(w);
  CrashWindow c;
  c.node = 2;
  c.crash_at = 60 * kMillisecond;
  c.restart_at = 120 * kMillisecond;
  plan.crashes.push_back(c);
  net.apply_fault_plan(plan);
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(i * kMillisecond, [&net, i] {
      net.send(static_cast<NodeId>(i % 5), static_cast<NodeId>((i + 1) % 5),
               10 + static_cast<std::uint64_t>(i), Channel::kQuery, [] {});
    });
  }
  if (shards > 0) {
    sharded->run_until(seconds(2));
    EXPECT_EQ(sharded->pending_events(), 0u);
  } else {
    sim.run();
  }
  return net.event_digest();
}

// The tentpole's correctness gate, coin-mode leg: with per-message
// fault coins in play the sharded engine micro-steps in exact global
// order, so 2 and 8 shards must fold the identical digest the
// sequential engine does — for all 16 golden seeds. (The sequential
// runs here equal run_fault_schedule's, which the goldens test above
// pins to the pre-slab engine, so transitively the sharded engine
// matches those constants too.)
TEST(Sharded, CoinModeDigestsMatchSequentialAcross16Seeds) {
  for (const std::uint64_t seed : testing::sweep_seeds("SIM", 16, 100)) {
    const auto sequential = run_fault_schedule_engine(seed, 0, true);
    EXPECT_EQ(sequential, run_fault_schedule(seed));
    EXPECT_EQ(run_fault_schedule_engine(seed, 2, true), sequential)
        << "2-shard coin-mode digest diverged at seed " << seed;
    EXPECT_EQ(run_fault_schedule_engine(seed, 8, true), sequential)
        << "8-shard coin-mode digest diverged at seed " << seed;
  }
}

// Parallel-window leg: partitions and crashes only (no message coins),
// so windows genuinely run shards concurrently — cross-shard sends
// buffer through the window logs and the barrier merge must reproduce
// the sequential (time, seq) order bit for bit.
TEST(Sharded, ParallelWindowDigestsMatchSequentialAcross16Seeds) {
  for (const std::uint64_t seed : testing::sweep_seeds("SIM", 16, 100)) {
    const auto sequential = run_fault_schedule_engine(seed, 0, false);
    EXPECT_EQ(run_fault_schedule_engine(seed, 2, false), sequential)
        << "2-shard window digest diverged at seed " << seed;
    EXPECT_EQ(run_fault_schedule_engine(seed, 8, false), sequential)
        << "8-shard window digest diverged at seed " << seed;
  }
}

// Satellite 2: aggregated statistics. Counts sum across every engine
// and max_depth / take_window_max_depth report the sum of per-engine
// high-water marks, so the telemetry queue probes stay meaningful when
// events live in N heaps.
TEST(Sharded, StatsAndWatermarksAggregateAcrossShards) {
  Simulator sim;
  ShardedSimulator sharded(sim, 4);
  // Default branching 8, 4 shards: children 1..4 of the implicit root
  // land on shards 0..3.
  ASSERT_NE(sharded.shard_of(1), sharded.shard_of(2));
  sharded.pin_node(40, 3);
  EXPECT_EQ(sharded.shard_of(40), 3u);

  // The shards of nodes 1 and 2 run these events in one parallel
  // window, so the counter is shared across threads.
  std::atomic<int> ran = 0;
  for (int i = 0; i < 3; ++i) {
    sharded.schedule_on_node(1, 10 + i, [&ran] { ++ran; });
  }
  for (int i = 0; i < 2; ++i) {
    sharded.schedule_on_node(2, 20 + i, [&ran] { ++ran; });
  }
  EXPECT_EQ(sharded.pending_events(), 5u);
  EXPECT_EQ(sharded.stats().scheduled, 5u);
  // Shard of node 1 holds 3 events, shard of node 2 holds 2: the
  // federation-wide watermark is the sum of the per-engine maxima.
  EXPECT_EQ(sharded.stats().max_depth, 5u);
  EXPECT_EQ(sharded.run_until(100), 5u);
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(sharded.stats().executed, 5u);
  EXPECT_EQ(sharded.take_window_max_depth(), 5u);
  EXPECT_EQ(sharded.take_window_max_depth(), 0u);  // taken = reset
  EXPECT_EQ(sharded.pending_events(), 0u);
}

// run_steps drives in exact global (time, seq) order across engines —
// the join/query drive loops depend on it.
TEST(Sharded, RunStepsInterleavesEnginesInGlobalOrder) {
  Simulator sim;
  ShardedSimulator sharded(sim, 2);
  std::vector<int> order;
  sharded.schedule_on_node(1, 30, [&] { order.push_back(3); });
  sharded.schedule_on_node(2, 10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(sharded.run_steps(2), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sharded.run_steps(10), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- Slotted engine: slot reuse, stats ---

// Free-list reuse while the slab spans many 256-slot chunks: each round
// parks one long-lived event and runs one transient; the next round's
// first schedule recycles the transient's slot. The heap must keep every
// key pointing at the right closure through all the reuse.
TEST(Simulator, ManyRescheduleCyclesStayConsistent) {
  Simulator sim;
  constexpr int kRounds = 2000;
  int transient = 0;
  std::vector<int> order;
  for (int round = 0; round < kRounds; ++round) {
    sim.schedule_at(2 * kRounds + round,
                    [&order, round] { order.push_back(round); });
    sim.schedule_at(round + 1, [&transient] { ++transient; });
    EXPECT_EQ(sim.run_until(round + 1), 1u);
  }
  EXPECT_EQ(transient, kRounds);
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(kRounds));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kRounds));
  for (int i = 0; i < kRounds; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.stats().max_depth, static_cast<std::size_t>(kRounds + 1));
}

TEST(Simulator, StatsCountLifecycleAndInlineSplit) {
  Simulator sim;
  sim.schedule_at(5, [] {});
  sim.schedule_at(6, [] {});
  sim.run();
  const auto& stats = sim.stats();
  EXPECT_EQ(stats.scheduled, 2u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.inline_events, 2u);  // captureless lambdas fit inline
  EXPECT_EQ(stats.spilled_events, 0u);
  EXPECT_EQ(stats.max_depth, 2u);
}

TEST(Simulator, OversizedClosureSpillsAndStillRuns) {
  Simulator sim;
  struct Big {
    char payload[EventFn::kInlineBytes + 8] = {};
  };
  Big big;
  big.payload[0] = 42;
  char seen = 0;
  sim.schedule_at(1, [big, &seen] { seen = big.payload[0]; });
  EXPECT_EQ(sim.stats().spilled_events, 1u);
  sim.run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(sim.stats().executed, 1u);
}

// Regression for the send-path metric handles: every instrument the
// hot path touches is created once in the Network constructor, so
// steady-state traffic must not grow the registry —
// a get-or-create lookup per send would show up here as a new entry
// or as churn in the instrument counts.
TEST(Network, SendPathCreatesNoNewInstruments) {
  NetFixture f;
  f.net.send(0, 1, 10, Channel::kQuery, [] {});  // warm every handle
  f.sim.run();
  const auto counters = f.net.metrics().counters().size();
  const auto histograms = f.net.metrics().histograms().size();
  for (int i = 0; i < 500; ++i) {
    f.net.send(static_cast<NodeId>(i % 10), static_cast<NodeId>((i + 1) % 10),
               32, static_cast<Channel>(i % kChannelCount), [] {});
  }
  f.sim.run();
  EXPECT_EQ(f.net.metrics().counters().size(), counters);
  EXPECT_EQ(f.net.metrics().histograms().size(), histograms);
}

// Satellite (profiling PR): span tracing is single-threaded state, so
// enabling it alongside the sharded coordinator must fail loudly at
// configuration time from either direction — not corrupt trace state
// at the first cross-thread delivery.
TEST(Network, TraceAndShardingGuardEachOtherAtAttachTime) {
  obs::TraceBuffer trace(64);
  {
    // Trace first, shard second: attach_sharded throws.
    NetFixture f;
    ShardedSimulator sharded(f.sim, 2);
    f.net.set_trace(&trace);
    EXPECT_THROW(f.net.attach_sharded(&sharded), std::logic_error);
  }
  {
    // Shard first, trace second: set_trace throws; clearing the trace
    // pointer stays legal, and detaching the coordinator re-enables
    // tracing.
    NetFixture f;
    ShardedSimulator sharded(f.sim, 2);
    f.net.attach_sharded(&sharded);
    EXPECT_THROW(f.net.set_trace(&trace), std::logic_error);
    EXPECT_NO_THROW(f.net.set_trace(nullptr));
    f.net.attach_sharded(nullptr);
    EXPECT_NO_THROW(f.net.set_trace(&trace));
  }
}

}  // namespace
}  // namespace roads::sim

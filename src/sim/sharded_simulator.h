// Sharded parallel discrete-event engine with conservative lookahead.
//
// Partitions the federation's nodes across N shards, gives each shard
// its own slab/4-ary-heap Simulator, and advances the shards in
// parallel under conservative time windows, while reproducing the
// sequential engine's execution EXACTLY — same event order, same
// sequence numbers, same FNV event digest, bit for bit.
//
// ## Why windows are safe (lookahead proof sketch)
//
// Every cross-shard interaction is a Network message, and
// DelaySpace::min_latency() lower-bounds the latency of any message
// between distinct nodes by L = base_latency (distance >= 0). Distinct
// shards hold distinct nodes, so a message sent at time t from one
// shard reaches another no earlier than t + L. A window [Ws, We) with
// We <= Ws + L therefore cannot receive any cross-shard event created
// inside the window itself: senders run at t >= Ws, so arrivals land at
// >= Ws + L >= We — the *next* window at the earliest. Within the
// window each shard only consumes events already in its heap plus
// same-shard events it schedules itself (self-sends have zero latency
// but a node is always on its own shard), so shards are causally
// independent for the window's duration and can run on separate
// threads.
//
// ## Why the result is bit-identical, not just equivalent
//
// The sequential engine orders events by (time, seq) where seq is
// drawn from one counter at schedule time; the network digest folds
// records in execution order. Both are global resources, so the shards
// cannot consume them mid-window. Instead:
//
//  * Outside windows (joins, queries, fault transitions — all driven
//    event-at-a-time) every engine draws from ONE shared counter and
//    the coordinator micro-steps whichever engine holds the globally
//    smallest (time, seq) heap top, so order and seq values match the
//    sequential run trivially.
//  * Inside a window, schedule_at appends a record to the shard's
//    ShardWindowLog tagged with the identity (time, seq) of the handler
//    that scheduled it; events targeting beyond the window are "parked"
//    (slot held, heap entry deferred), cross-shard deliveries buffer
//    their closure in the log, digest folds buffer their payload.
//  * At the window barrier the logs are S-way merged by (handler time,
//    handler seq) — provably the order a sequential run would have
//    executed those handlers in, because each shard's log is already
//    sorted by it and handler keys are globally unique. Walking the
//    merge assigns sequence numbers from the shared counter, inserts
//    parked/cross events under their final seqs, and folds digest
//    payloads — byte-identical bookkeeping to the sequential engine.
//
// Handlers that were themselves scheduled in-window execute under a
// provisional key (Simulator::kPhase1Bit | local serial) that compares
// after every pre-window key at the same instant — exactly where their
// final seqs would sort, since pre-window schedules drew smaller
// numbers. The merge resolves provisional keys to final seqs as it
// passes the records that created them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/window_log.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace roads::obs {
class Counter;
class MetricsRegistry;
class Profiler;
}  // namespace roads::obs

namespace roads::sim {

using NodeId = std::uint32_t;

class ShardedSimulator {
 public:
  /// `global` is the coordinator engine (the Federation's Simulator):
  /// fault-plan windows and anything scheduled outside a node context
  /// live there, and its events act as barriers — windows never span a
  /// global event. `shards` >= 1 worker engines are created internally.
  ShardedSimulator(Simulator& global, std::size_t shards);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Conservative lookahead L: no cross-shard message arrives sooner
  /// than L after it was sent (DelaySpace::min_latency()). Clamped to
  /// >= 1 microsecond — a zero lookahead would make windows empty.
  void set_lookahead(Time lookahead);
  Time lookahead() const { return lookahead_; }

  /// Branching factor of the implicit balanced tree the subtree
  /// partition assumes (RoadsConfig::max_children).
  void set_tree_branching(std::size_t k);

  /// Pins a node to a shard explicitly (owner nodes ride with their
  /// attachment server). Unpinned nodes map by subtree, falling back
  /// to hash-of-NodeId beyond the modeled tree.
  void pin_node(NodeId node, std::size_t shard);
  std::size_t shard_of(NodeId node) const;
  std::size_t shard_count() const { return shards_.size(); }

  /// Degrades run_until to exact global micro-stepping: per-message
  /// fault coins (loss/dup/reorder) draw from the network RNG at send
  /// time in global order, which parallel windows cannot reproduce.
  /// Partition/crash windows alone do NOT need this — they are global
  /// events and bound windows anyway.
  void set_coin_mode(bool coin_mode) { coin_mode_ = coin_mode; }

  /// Where barrier-merged digest payloads fold (the Network's FNV
  /// accumulator). nullptr drops them.
  void set_digest_sink(util::Fnv1a* sink) { digest_sink_ = sink; }

  // --- Drive (mirrors Simulator) -----------------------------------------

  /// Coordinator clock (kept in sync with every shard between
  /// windows). Together with schedule_after/pending_events this lets
  /// the obs::Timeline sampler drive a sharded run: its tick events
  /// live on the global engine, where they bound windows like any
  /// other global event — probes then run at the barrier, outside any
  /// shard thread.
  Time now() const { return global_.now(); }

  /// Schedules on the global (coordinator) engine.
  void schedule_after(Time delay, EventFn fn) {
    global_.schedule_after(delay, std::move(fn));
  }

  /// Runs every event with time <= deadline across all engines —
  /// parallel windows where the lookahead allows, exact micro-stepping
  /// where it does not — then advances every clock to `deadline`.
  std::size_t run_until(Time deadline);

  /// Executes at most `limit` events in exact global order (the
  /// join/query drive loops run event-at-a-time anyway).
  std::size_t run_steps(std::size_t limit);

  std::size_t pending_events() const;

  /// Aggregated engine statistics: counts are summed; max_depth is the
  /// sum of per-engine high-water marks — a federation-wide queue
  /// watermark (upper bound on the true simultaneous depth, and equal
  /// to it for the sequential engine).
  Simulator::Stats stats() const;

  /// Sum of every engine's per-window watermark (see
  /// Simulator::take_window_max_depth); keeps the timeline's queue
  /// probe meaningful when events live in N heaps.
  std::size_t take_window_max_depth();

  /// Publishes sim.shard.{windows,barrier_wait_us,cross_sends} plus
  /// per-shard sim.shard.<i>.{cross_sends,busy_us,idle_us,
  /// barrier_wait_us} — the utilization series the Timeline tracks.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Attaches handler-level profiling (obs/profile.h): every engine
  /// gets its own ProfSink (global = 0, shard i = i+1) and the
  /// coordinator feeds the profiler a per-window busy/barrier-wait/
  /// idle breakdown per shard, measured with the profiler's tick
  /// clock. nullptr detaches. Profiling never perturbs event order —
  /// digests stay bit-identical (profile_test).
  void attach_profiler(obs::Profiler* profiler);

  // --- Execution-context routing (Network / Federation hooks) ------------

  /// The engine owning the currently executing context: the shard
  /// engine inside a window or micro-step or pin, the global engine
  /// otherwise (coordinator code between events).
  Simulator& current_engine();

  Simulator& engine_for_node(NodeId node) { return *shards_[shard_of(node)]; }

  /// True while the calling thread executes inside a parallel window —
  /// global-resource consumption must go through the window log.
  bool in_window() const;

  /// Routes a delivery closure to the engine owning `node`. In-window
  /// cross-shard sends buffer into the shard's log (exchanged at the
  /// barrier); everything else inserts directly under a shared-counter
  /// seq.
  void schedule_on_node(NodeId node, Time when, EventFn fn);

  /// In-window digest fold: buffers the payload in the shard's log in
  /// handler order; the barrier merge folds it into the digest sink at
  /// exactly the sequential position.
  void record_digest(const std::array<std::uint64_t, 6>& payload);

  struct ExecContext {
    ShardedSimulator* owner = nullptr;
    Simulator* engine = nullptr;
    std::size_t shard = 0;
    ShardWindowLog* log = nullptr;  // non-null only inside a window
  };

  /// Saves tls and installs {this, engine_for_node(node)}: coordinator
  /// code (start_timers, fault transitions) runs "as" the node so its
  /// schedules land on the owning shard. Restore via restore_context.
  ExecContext push_node_context(NodeId node);
  void restore_context(const ExecContext& prev);

 private:
  bool micro_pop();
  bool global_min_top(Time& when, std::uint64_t& seq, std::size_t& engine);
  void run_shard_window(std::size_t shard, Time window_end);
  void run_parallel_window(Time window_end);
  void merge_window();
  void ensure_pool();
  Simulator* engine_at(std::size_t index) {
    return index == 0 ? &global_ : shards_[index - 1].get();
  }

  static thread_local ExecContext tls_;

  Simulator& global_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::uint64_t next_seq_ = 1;  // the one global counter, shared by all
  Time lookahead_ = kMillisecond;
  std::size_t branching_ = 8;
  bool coin_mode_ = false;
  util::Fnv1a* digest_sink_ = nullptr;

  static constexpr std::uint32_t kUnpinned = 0xffffffffu;
  std::vector<std::uint32_t> pins_;  // indexed by NodeId

  std::vector<ShardWindowLog> logs_;            // one per shard
  std::vector<std::vector<std::uint64_t>> resolved_;  // phase-1 -> vseq
  std::vector<std::size_t> cursors_;
  std::vector<std::size_t> active_;
  std::vector<std::int64_t> busy_us_;
  obs::Profiler* profiler_ = nullptr;
  std::vector<std::uint64_t> work_ticks_snap_;  // per-shard, per window
  std::vector<std::uint8_t> shard_active_;      // scratch flags per window
  Time cur_window_end_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;

  obs::Counter* windows_counter_ = nullptr;
  obs::Counter* barrier_wait_counter_ = nullptr;
  obs::Counter* cross_sends_counter_ = nullptr;
  std::vector<obs::Counter*> shard_cross_counters_;
  std::vector<obs::Counter*> shard_busy_counters_;
  std::vector<obs::Counter*> shard_idle_counters_;
  std::vector<obs::Counter*> shard_wait_counters_;
};

/// RAII node pin: no-op when `sharded` is nullptr, so call sites work
/// unchanged in sequential mode.
class ScopedNodePin {
 public:
  ScopedNodePin(ShardedSimulator* sharded, NodeId node) : sharded_(sharded) {
    if (sharded_ != nullptr) prev_ = sharded_->push_node_context(node);
  }
  ~ScopedNodePin() {
    if (sharded_ != nullptr) sharded_->restore_context(prev_);
  }

  ScopedNodePin(const ScopedNodePin&) = delete;
  ScopedNodePin& operator=(const ScopedNodePin&) = delete;

 private:
  ShardedSimulator* sharded_;
  ShardedSimulator::ExecContext prev_;
};

}  // namespace roads::sim

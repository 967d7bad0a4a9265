// Sequential discrete-event simulator.
//
// Events are closures ordered by (time, insertion sequence) so
// same-instant events run in schedule order — this makes every run with
// the same seed bit-for-bit reproducible. One Simulator instance drives
// one experiment; repetitions run as independent instances (optionally
// in parallel via util::ThreadPool, since instances share nothing).
//
// Engine layout: event closures live in a chunked slab of reusable
// slots (a free list threads through vacant entries; chunks are never
// reallocated, so slot addresses are stable and closures execute in
// place), and a 4-ary min-heap of {when, seq} keys with a parallel
// array of slot indices orders execution. Every heap entry is a live
// event: no protocol withdraws a scheduled event (components that must
// go quiet guard their own closures, e.g. with an epoch), so the engine
// has no cancellation. No per-event hashing, no allocation for closures
// that fit the EventFn inline buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"
#include "util/unique_function.h"

namespace roads::obs {
struct ProfSink;
}  // namespace roads::obs

namespace roads::sim {

struct ShardWindowLog;

/// Inline capacity 48 covers every protocol timer, fault transition
/// and trampoline closure in the tree, keeping slab slots compact so
/// deep queues stay memory-lean. Network delivery closures (~130
/// bytes: DeliverFn + endpoints) spill to the thread-local util::spill
/// pool, whose LIFO free lists hand back cache-warm blocks under the
/// bounded in-flight message counts the protocols produce.
using EventFn = util::UniqueFunction<void(), 48>;

class Simulator {
 public:
  /// The engine's event ledger; inline/spilled split what fraction of
  /// event closures fit EventFn's buffer (spills hit the util::spill
  /// pool).
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t inline_events = 0;
    std::uint64_t spilled_events = 0;
    std::size_t max_depth = 0;  // high-water pending_events()
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }
  /// Events scheduled but not yet executed.
  std::size_t pending_events() const { return live_; }

  /// Schedules `fn` at absolute time `when` (>= now).
  void schedule_at(Time when, EventFn fn);

  /// Schedules `fn` after a relative delay (>= 0).
  void schedule_after(Time delay, EventFn fn);

  /// Runs events until the queue drains. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= deadline; the clock ends at `deadline`
  /// even if the queue drained earlier.
  std::size_t run_until(Time deadline);

  /// Executes at most `limit` events (safety valve for protocol loops).
  std::size_t run_steps(std::size_t limit);

  const Stats& stats() const { return stats_; }

  /// Per-window queue-depth watermark: the high-water pending_events()
  /// since the last call, reset to the current depth on read. Unlike
  /// Stats::max_depth (a whole-run high-water mark), a periodic reader
  /// (obs::Timeline) gets one watermark per sampling window.
  std::size_t take_window_max_depth();

  /// Attaches a profiling sink (see obs/profile.h): every schedule tags
  /// the event's slot with the current thread-local category, and the
  /// drive loops time each handler with one tick read per event,
  /// accumulating self-time per category into `sink`. The sink must be
  /// written by this engine's driving thread only (the sharded
  /// coordinator hands each shard engine its own). nullptr detaches;
  /// without a sink the engine pays one predictable branch per event.
  void set_profile_sink(obs::ProfSink* sink) { prof_ = sink; }
  obs::ProfSink* profile_sink() const { return prof_; }

  /// Carries causal trace contexts (see obs/trace.h) the way the
  /// profile category rides the slot: every schedule stamps the event
  /// with obs::current_trace_context() — an explicit ScopedTraceContext
  /// if one is active, else the running event's own context — and the
  /// event runs with that context installed. sim::Network turns this on
  /// when a trace buffer is attached; off, the engine pays one
  /// predictable branch per schedule and per event.
  void set_tracing(bool on) { tracing_ = on; }

  // --- Sharded-engine hooks (sim::ShardedSimulator) -----------------------
  //
  // A sharded run gives every shard its own Simulator and reproduces the
  // sequential engine's global (time, seq) order across them. Two seq
  // regimes exist: outside parallel windows every engine draws from one
  // shared counter (set_shared_seq), so cross-engine heap tops compare
  // like entries of a single merged heap; inside a window, seqs cannot
  // be drawn (they depend on the global interleaving), so schedule_at
  // appends to the ShardWindowLog instead and the barrier merge assigns
  // them. None of this costs the plain sequential engine more than one
  // predictable branch per schedule/pop.

  /// Tag bit for events scheduled *during* a parallel window: their heap
  /// seq is kPhase1Bit | window-local serial until the barrier resolves
  /// a global number. Plain integer comparison keeps them after every
  /// pre-window event at the same instant — exactly the sequential
  /// order, since pre-window schedules consumed smaller global seqs.
  static constexpr std::uint64_t kPhase1Bit = std::uint64_t{1} << 63;

  /// Draw event seqs from `counter` (nullptr restores the private
  /// counter). All engines of one sharded run share a single counter.
  void set_shared_seq(std::uint64_t* counter) { shared_seq_ = counter; }

  /// Runs every event with time < `window_end`, logging schedules into
  /// `log` (see window_log.h). In-window schedules targeting times
  /// before `window_end` enter the heap as phase-1; later targets are
  /// parked — the slot is held but heap insertion waits for the
  /// barrier's seq assignment.
  std::size_t run_window(Time window_end, ShardWindowLog* log);

  /// Barrier-time insertion of a cross-shard delivery with its merged
  /// global seq. Accounts like schedule_at (the sequential engine
  /// counted the delivery when the sender scheduled it). `category` is
  /// the sender-side profiling tag carried across the barrier.
  void insert_with_seq(Time when, std::uint64_t seq, EventFn fn,
                       std::uint8_t category = 0);

  /// Barrier-time heap insertion of a parked event (slot already holds
  /// the closure).
  void reinsert_parked(std::uint32_t slot_index, Time when, std::uint64_t seq);

  /// Heap top key, for cross-engine merging.
  bool top_key(Time& when, std::uint64_t& seq) const {
    if (heap_keys_.empty()) return false;
    when = heap_keys_.front().when;
    seq = heap_keys_.front().seq;
    return true;
  }

  /// Executes the top heap entry; false when the heap is empty. The
  /// sharded coordinator re-compares engines after every step to
  /// preserve the global order.
  bool step_top();

  /// Moves the clock forward to `t` if it lags (never backwards). The
  /// coordinator keeps engine clocks in sync so now() reads anywhere
  /// match the sequential run.
  void advance_clock(Time t) {
    if (now_ < t) now_ = t;
  }

  /// Identity of the handler currently executing (valid inside an event
  /// closure): its execution time and heap seq. Window-mode bookkeeping
  /// tags log records with this.
  Time exec_when() const { return exec_when_; }
  std::uint64_t exec_seq() const { return exec_seq_; }

 private:
  // Heap entries carry the ordering keys directly so sifting never
  // chases the slot indirection; 4-ary halves the depth vs binary.
  // Keys and slot indices live in parallel arrays so one sift
  // comparison touches a 16-byte key only — a 4-child sibling group is
  // a single cache line instead of 1.5.
  struct HeapKey {
    Time when;
    std::uint64_t seq;
  };
  struct Slot {
    EventFn fn;
    std::uint32_t next_free = kNoSlot;
    std::uint8_t category = 0;  // profiling tag (rides existing padding)
    obs::TraceContext trace;    // causal context (tracing runs only)
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // Fixed-size chunks keep slot addresses stable as the slab grows —
  // growth never move-constructs existing closures, and execute_top
  // can run a closure in place while the handler schedules freely.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  static bool before(const HeapKey& a, const HeapKey& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;  // FIFO among same-instant events
  }

  /// Pops the heap top and runs its closure in place.
  void execute_top();
  /// Closes the profiler's pending self-time measurement (the last
  /// handler's interval ends where the drive loop does) and folds the
  /// loop's wall ticks into the sink's work accounting.
  void prof_close(std::uint64_t loop_t0);
  void heap_push(HeapKey key, std::uint32_t slot_index);
  void heap_pop_top();
  std::uint32_t acquire_slot();
  void note_depth();

  Slot& slot_at(std::uint32_t slot_index) {
    return chunks_[slot_index >> kChunkShift][slot_index & (kChunkSize - 1)];
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t* shared_seq_ = nullptr;   // sharded runs: one global counter
  ShardWindowLog* window_log_ = nullptr;  // non-null while inside run_window
  Time window_end_ = 0;
  std::uint64_t window_local_seq_ = 0;
  Time exec_when_ = 0;
  std::uint64_t exec_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t window_max_depth_ = 0;
  std::size_t slot_count_ = 0;
  std::vector<HeapKey> heap_keys_;
  std::vector<std::uint32_t> heap_slots_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  Stats stats_;

  obs::ProfSink* prof_ = nullptr;  // non-null: handler profiling on
  bool tracing_ = false;           // stamp + install trace contexts
};

}  // namespace roads::sim

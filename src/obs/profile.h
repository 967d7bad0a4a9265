// Continuous handler-level CPU profiling for the event engines.
//
// Span tracing (obs/trace.h) does not run under sim::ShardedSimulator
// yet — trace contexts are not carried across the window merge — so
// the parallel engine needed its own cost-attribution story. This module attributes
// *self-time* to handler categories (message kind × subsystem:
// summary-push, query-forward, heartbeat, replica-cascade, join,
// timer-maintenance, …). The category is decided at schedule/send time
// from a thread-local tag (ScopedProfCategory at the send or timer
// site; untagged schedules inherit the category of the handler that
// issued them), travels on the event slot — one byte of existing
// padding — and rides cross-shard window-log records through the
// barrier merge, so attribution survives sharding.
//
// Timing is a raw monotonic cycle counter (TSC on x86-64, CNTVCT on
// aarch64, steady_clock elsewhere) read at drive-loop entry/exit and
// every ProfSink::kSampleStride-th event: each inter-sample block is
// charged to the handler category observed when the block opened, and
// blocks always close at loop exit, so attribution covers ~all of
// measured work while per-event cost stays at a couple of predictable
// stores (event counts stay exact). Ticks accumulate into a per-engine
// ProfSink — each shard engine is driven by exactly one thread per
// window, so sinks need no synchronization — and are converted to
// microseconds only when a Profile snapshot is cut (prof_ticks_to_us
// calibrates the tick rate against the steady clock once per process).
//
// Determinism contract: profiling never schedules, draws randomness,
// or reorders anything — attaching a Profiler leaves event digests and
// metrics fingerprints bit-identical (profile_test pins this across
// seeds and thread counts). Cost with a sink attached is a count
// increment per event, an amortized 1/kSampleStride clock read, and a
// byte of tagging per schedule; with no sink the engine pays a single
// predictable branch (bench_micro_sim gates the profiled delta at 2%).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace roads::obs {

class SpanTree;

/// Handler taxonomy. kOther (0) doubles as "untagged": a schedule with
/// no explicit tag and no executing handler to inherit from lands
/// there. Values are bucket indices — append only.
enum class ProfCategory : std::uint8_t {
  kOther = 0,
  kJoin,              // join request/response/timeout protocol
  kSummaryPush,       // branch summary export + parent/sibling pushes
  kReplicaCascade,    // replica-overlay summary propagation
  kQueryForward,      // query routing, evaluation, redirects
  kQueryResult,       // result batches back to the client
  kHeartbeat,         // heartbeat traffic + miss accounting
  kMaintenance,       // leave notices, failure repair, re-export
  kTimerRefresh,      // periodic summary-refresh timer bodies
  kTimerMaintenance,  // heartbeat/failure-check timer bodies
  kFault,             // fault-plan transitions (crash/restart/partition)
  kTelemetry,         // timeline sampler ticks and probes
};
inline constexpr std::size_t kProfCategoryCount = 12;

const char* to_string(ProfCategory category);
/// Subsystem group ("summary", "query", …): the middle frame of the
/// exported flame-graph stacks.
const char* prof_subsystem(ProfCategory category);

// --- Tick clock ------------------------------------------------------------

/// Raw monotonic ticks; the cheapest high-resolution counter the
/// platform offers. Wall-time based: preemption inflates a handler's
/// self-time (telemetry, not truth serum).
inline std::uint64_t prof_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Ticks per microsecond, calibrated against the steady clock over at
/// least a millisecond and cached for the process. Cold path only.
double prof_ticks_per_us();
double prof_ticks_to_us(std::uint64_t ticks);

// --- Schedule-time tagging -------------------------------------------------

namespace detail {
/// Explicit tag for schedules made in the current scope (0 = none).
extern thread_local std::uint8_t t_sched_category;
/// Category of the handler currently executing on this thread (0
/// outside handlers). The engine maintains it around each invocation.
extern thread_local std::uint8_t t_exec_category;
}  // namespace detail

/// The category a schedule issued right now should carry: the explicit
/// scope tag if one is active, else the executing handler's category
/// (so a handler's internal reschedules stay attributed to it).
inline std::uint8_t prof_current_category() {
  const std::uint8_t tag = detail::t_sched_category;
  return tag != 0 ? tag : detail::t_exec_category;
}

/// Tags every schedule/send in scope with `category`. Nested scopes
/// shadow; the innermost wins. Cheap enough to leave on unprofiled
/// paths (two thread-local byte stores).
class ScopedProfCategory {
 public:
  explicit ScopedProfCategory(ProfCategory category)
      : saved_(detail::t_sched_category) {
    detail::t_sched_category = static_cast<std::uint8_t>(category);
  }
  ~ScopedProfCategory() { detail::t_sched_category = saved_; }

  ScopedProfCategory(const ScopedProfCategory&) = delete;
  ScopedProfCategory& operator=(const ScopedProfCategory&) = delete;

 private:
  std::uint8_t saved_;
};

/// Like ScopedProfCategory but only applies when no tag is active —
/// the network uses it to supply per-channel defaults without
/// clobbering a more specific tag from the protocol layer.
class ScopedProfDefault {
 public:
  explicit ScopedProfDefault(ProfCategory category)
      : applied_(detail::t_sched_category == 0) {
    if (applied_) {
      detail::t_sched_category = static_cast<std::uint8_t>(category);
    }
  }
  ~ScopedProfDefault() {
    if (applied_) detail::t_sched_category = 0;
  }

  ScopedProfDefault(const ScopedProfDefault&) = delete;
  ScopedProfDefault& operator=(const ScopedProfDefault&) = delete;

 private:
  bool applied_;
};

// --- Accumulation ----------------------------------------------------------

/// Per-engine accumulation buckets, written by the one thread driving
/// that engine (invoke site in Simulator::execute_ref and the drive
/// loops). Event counts are exact (one array increment per event);
/// tick attribution is stride-sampled: the clock is read at loop
/// entry/exit and every kSampleStride-th event, and each inter-sample
/// block is charged to the category observed when the block opened —
/// classic sampling-profiler semantics, which keeps the per-event cost
/// to a couple of predictable stores (a raw clock read per event would
/// alone blow the <= 2% engine budget). Blocks always close at loop
/// exit, so category self-times still sum to ~all of measured work.
struct ProfSink {
  /// Events between tick reads. Power of two; 64 amortizes an ~8 ns
  /// clock read to ~0.1 ns/event while protocol workloads (hundreds of
  /// ns/event) still sample every few microseconds.
  static constexpr std::uint64_t kSampleStride = 64;

  struct Bucket {
    std::uint64_t ticks = 0;
    std::uint64_t count = 0;
  };
  /// Sized to the next power of two so the hot-path index is a mask,
  /// not a compare; slots [kProfCategoryCount, 16) stay zero (only
  /// reachable through a corrupted category byte) and are ignored by
  /// Profiler snapshots.
  std::array<Bucket, 16> buckets{};
  /// Total ticks spent inside this engine's drive loops (the coverage
  /// denominator; measured with the same clock as the buckets).
  std::uint64_t work_ticks = 0;

  std::uint64_t pending_t0 = 0;
  std::uint64_t sample_ctr = 0;
  std::uint8_t pending_cat = 0;
  bool pending = false;

  void add_ticks(std::uint8_t category, std::uint64_t ticks) {
    buckets[category & 0xF].ticks += ticks;
  }
  void count_event(std::uint8_t category) { ++buckets[category & 0xF].count; }
  void clear() {
    buckets.fill(Bucket{});
    work_ticks = 0;
    sample_ctr = 0;
    pending = false;
  }
};

// --- Snapshots -------------------------------------------------------------

struct ProfileEntry {
  std::string name;       // category name ("summary-push", …)
  std::string subsystem;  // flame-graph middle frame ("summary", …)
  double self_us = 0.0;
  std::uint64_t events = 0;
  double share = 0.0;  // self_us / total_self_us
};

struct ShardUtilization {
  std::size_t shard = 0;
  double busy_us = 0.0;          // executing inside its window
  double barrier_wait_us = 0.0;  // finished early, waiting at the barrier
  double idle_us = 0.0;          // inactive (no events in the window)
  std::uint64_t windows = 0;     // windows this shard was active in
};

/// Aggregated snapshot across every engine of one run (or one scenario
/// phase). Categories are sorted by descending self-time; empty
/// buckets are dropped.
struct Profile {
  std::vector<ProfileEntry> categories;
  double total_self_us = 0.0;
  std::uint64_t total_events = 0;
  /// Engine drive-loop time, same clock as the buckets — the honest
  /// denominator for coverage (window execution + micro-stepping).
  double work_us = 0.0;
  std::uint64_t windows = 0;  // parallel windows (0 sequentially)
  std::vector<ShardUtilization> shards;
  /// Thread-CPU cost of cutting snapshots (ScopedTimer with the
  /// thread-CPU clock over exponential buckets).
  std::uint64_t flush_count = 0;
  double flush_mean_us = 0.0;

  /// total_self_us / work_us; 0 when no work was measured.
  double coverage() const {
    return work_us > 0.0 ? total_self_us / work_us : 0.0;
  }
};

/// Owns the per-engine sinks and the shard-utilization ledger for one
/// run. Single-threaded by construction: sinks are handed to engines
/// before the run, the utilization hooks run on the coordinator thread
/// at window barriers, and snapshots are cut between drives.
class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Get-or-create the sink for one engine (0 = the global/sequential
  /// engine, 1..N = shards). Addresses are stable.
  ProfSink& sink(std::size_t engine_index);

  /// Coordinator-side utilization, in raw ticks (see prof_ticks).
  void note_shard_window(std::size_t shard, std::uint64_t busy_ticks,
                         std::uint64_t wait_ticks);
  void note_shard_idle(std::size_t shard, std::uint64_t idle_ticks);
  void note_window() { ++windows_; }

  /// Aggregated snapshot; take_profile() also resets every sink and
  /// the utilization ledger (per-phase profiles in the scenario
  /// runner cut one slice per phase).
  Profile profile() const;
  Profile take_profile();

  /// Snapshot cost distribution (exponential-bucket histogram fed by
  /// the thread-CPU ScopedTimer clock).
  const Histogram& flush_cost() const { return flush_hist_; }

 private:
  Profile build_profile() const;

  std::vector<std::unique_ptr<ProfSink>> sinks_;
  std::vector<ShardUtilization> shard_ticks_;  // *_us fields hold ticks
  std::uint64_t windows_ = 0;
  Histogram flush_hist_;
};

// --- Export ----------------------------------------------------------------

/// Collapsed-stack text (flamegraph.pl input): one
/// "roads;<subsystem>;<category> <self_us>" line per category.
void write_collapsed(const Profile& profile, std::ostream& os);

/// speedscope JSON (https://www.speedscope.app file format): a sampled
/// profile whose samples are the category stacks, weighted in
/// microseconds.
void write_speedscope(const Profile& profile, std::ostream& os,
                      const std::string& name);

/// Flame-graph export of a causal SpanTree (single-thread runs, PR 4):
/// each span weighted by its self-time (duration minus child spans,
/// clamped at zero), stacked along its ancestor chain.
void write_collapsed(const SpanTree& tree, std::ostream& os);
void write_speedscope(const SpanTree& tree, std::ostream& os,
                      const std::string& name);

/// PROFILE_<name>.json: clock calibration, category table, coverage
/// and per-shard utilization — the machine-readable twin of the hot-
/// handler table.
void write_profile_json(const Profile& profile, std::ostream& os,
                        const std::string& name, std::uint64_t seed,
                        std::size_t threads);

/// Aligned top-k hot-handler table (human-readable, for stdout and
/// the flight recorder).
std::string profile_top_table(const Profile& profile, std::size_t k);

/// One greppable line: "PROFILE name=<name> coverage=.. top: a=..us ..".
std::string profile_top_line(const Profile& profile, const std::string& name,
                             std::size_t k);

}  // namespace roads::obs

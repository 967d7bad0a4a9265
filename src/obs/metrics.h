// Unified metrics layer: a thread-safe registry of named Counter /
// Histogram instruments shared by every subsystem (network meters,
// query accounting, overlay and repository latencies). The
// design follows the Envoy Stats split between recording (lock-free
// counters, per-histogram locking) and reading (snapshot accessors
// that copy consistent state). Instruments live as long as their
// registry and are handed out by reference, so hot paths cache the
// pointer once and record without any name lookup.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace roads::obs {

/// Monotonically increasing event count. Lock-free; safe to bump from
/// util::ThreadPool workers. reset() exists because experiment drivers
/// meter deltas over a window (mirroring sim::Network::reset_meters).
///
/// Thread-safety contract (see ObsStress tests): inc() is an atomic RMW
/// — concurrent increments from any number of threads are never lost.
/// take() is an atomic exchange, so a reader cutting a metering window
/// with take() attributes every increment to exactly one window: the
/// sum of all take() results plus the final value() equals the total
/// number of increments, even under contention. reset() is take() with
/// the old value discarded; the racy read-then-reset idiom
/// (`v = c.value(); c.reset();`) CAN lose increments that land between
/// the two calls, which is why the single-threaded simulation drivers
/// only reset between windows while no recorder is running.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Atomically returns the current value and zeroes the counter.
  std::uint64_t take() {
    return value_.exchange(0, std::memory_order_relaxed);
  }
  void reset() { take(); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Quantile q in [0, 1] of the samples that `counts` holds per bucket
/// (not cumulative; counts.size() == bounds.size() + 1, the last entry
/// being the +inf overflow bucket), by the Prometheus
/// histogram_quantile rule: find the bucket that holds the q-th share
/// of the samples and interpolate linearly inside it. The first
/// bucket's lower edge is min(0, bounds[0]); a quantile that lands in
/// the overflow bucket reads the last bound. 0 when `counts` holds no
/// sample. Histogram::quantile and Timeline's window quantiles both
/// use it, so one rule answers every quantile the registry reports.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q);

/// Fixed-bucket histogram: per-bucket counts plus count, sum, min and
/// max, and no log of the samples, so an instrument on a hot path
/// (one sample per replica put) stays the same size however long a
/// run goes. Quantiles come from the buckets, as in Envoy's
/// HistogramStatistics and Prometheus exposition. Thread-safe via a
/// per-instrument mutex: shard threads record into shared instruments.
class Histogram {
 public:
  /// `bounds` are ascending bucket upper bounds; an implicit +inf
  /// bucket catches the overflow.
  explicit Histogram(std::vector<double> bounds);

  void record(double x);

  std::uint64_t count() const;
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  /// bucket_quantile over every sample recorded, clamped to
  /// [min(), max()]: 0 when empty, and exact for a single sample.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (not cumulative); size() == bounds().size() + 1,
  /// last entry being the +inf overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  const std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> buckets_;
  util::RunningStat stat_;
};

/// Power-of-10-ish bounds covering sub-microsecond store operations up
/// to multi-second simulated latencies; callers measuring a narrow
/// range pass their own bounds instead.
std::vector<double> default_latency_buckets();

/// Geometric bucket bounds: {start, start*factor, ..., start*factor^
/// (count-1)} — the Prometheus ExponentialBuckets shape. Throws
/// std::invalid_argument unless start > 0, factor > 1 and count >= 1.
std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count);

/// Named instrument registry. get-or-create accessors are idempotent:
/// every server in a federation asking for "roads.query.hops" shares
/// one counter. References stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  /// `bounds` only applies on first creation; later callers get the
  /// existing instrument regardless of the bounds they pass.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = default_latency_buckets());

  /// Attaches a one-line description exported as the Prometheus
  /// `# HELP` text (see obs::write_prometheus). Last writer wins;
  /// instruments without help text export their dotted name.
  void set_help(const std::string& name, std::string text);
  /// Stored help text; empty when none was set.
  std::string help(const std::string& name) const;

  /// Flattens every instrument into scalar metrics: counters keep their
  /// name, histograms expand to <name>.count/.mean/.p50/.p90/.p99/.max
  /// — the shape exp::Experiment folds into its results.
  util::MetricSet snapshot() const;

  /// Zeroes every counter (histograms are left alone).
  void reset_counters();

  /// Deterministic (sorted-name) views for the exporters.
  std::vector<std::pair<std::string, const Counter*>> counters() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

/// RAII span timer: records elapsed time into a histogram on
/// destruction. The default clock is the wall-clock in microseconds
/// (for real operation latencies, e.g. ReplicaStore lookups); pass a
/// custom clock to time in simulated milliseconds instead.
class ScopedTimer {
 public:
  using ClockFn = std::function<double()>;

  explicit ScopedTimer(Histogram& hist);
  ScopedTimer(Histogram& hist, ClockFn clock);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Wall clock in microseconds since an arbitrary epoch.
  static double wall_clock_us();

  /// Calling thread's consumed CPU time in microseconds
  /// (CLOCK_THREAD_CPUTIME_ID; falls back to the wall clock on
  /// platforms without it). Unlike wall_clock_us this excludes time
  /// the thread spent preempted or blocked — the right clock for
  /// measuring the profiler's own flush cost.
  static double thread_cpu_us();
  /// thread_cpu_us as a ready-made ClockFn.
  static ClockFn thread_cpu_clock();

 private:
  Histogram& hist_;
  ClockFn clock_;
  double start_;
};

}  // namespace roads::obs

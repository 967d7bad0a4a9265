// Timeline: time-series telemetry over the metrics registry.
//
// Endpoint aggregates (the §V tables) say what a run cost; they cannot
// say how stale the replica overlay was *during* a partition or when
// the federation converged after a churn wave. The Timeline closes that
// gap: on a configurable sim-time tick it snapshots registered
// counters/histograms into fixed-interval windows — per-window counter
// deltas become rates, histogram bucket deltas become windowed
// quantiles — and runs caller-installed probes (pure read-only
// callbacks) against live protocol state. Windows live in a bounded
// ring, so long chaos runs keep the recent history without unbounded
// growth, and the last windows can be attached to a flight record when
// an invariant trips.
//
// On top of the windows sits a convergence detector: a window is
// "healthy" when every installed health predicate holds (staleness
// bounded, divergence below threshold, ...); the federation counts as
// converged once W consecutive windows are healthy AND every series
// registered via require_flat_rate kept a flat rate across those W
// windows. Convergence events are recorded with their sim time, which
// gives experiment drivers a principled warm-up cutoff
// (first_converged_at) and a measured time-to-recover after each fault
// window (converged_after).
//
// Determinism: tick() reads instruments and calls probes — it never
// sends messages, draws from shared RNGs, or mutates protocol state —
// so attaching a Timeline does not perturb the event digest of a
// seeded run, and the same seed yields bit-identical windows.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "sim/time.h"

namespace roads::obs {

struct TimelineConfig {
  /// Sampling/probe interval (sim time between window cuts).
  sim::Time window = sim::seconds(1);
  /// Bounded ring: windows kept before the oldest is evicted.
  std::size_t capacity = 4096;
  /// Consecutive healthy windows required for convergence (W).
  std::size_t convergence_windows = 3;
};

/// One closed sampling window [start, end). Scalar series live in
/// `values` under prefixed names ("rate.<counter>", "<hist>.wp90",
/// "probe.<probe>"); per-node probe series live in
/// `per_node` as one value per node id.
struct TimelineWindow {
  std::uint64_t index = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  bool healthy = true;
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> per_node;

  double value(const std::string& name, double fallback = 0.0) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
};

class Timeline {
 public:
  Timeline(MetricsRegistry& registry, TimelineConfig config);
  ~Timeline();

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  // --- Series registration (idempotent; typically before the first tick) ---

  /// Tracks a counter: each window records "delta.<name>" (increments
  /// inside the window) and "rate.<name>" (increments per simulated
  /// second).
  void track_counter(const std::string& name);
  /// Tracks a histogram: each window diffs the cumulative bucket counts
  /// and records "<name>.wcount", "<name>.wmean" and
  /// "<name>.wp50/.wp90/.wp99" — quantiles of the samples recorded
  /// *inside* the window: obs::bucket_quantile over the window's
  /// bucket-count deltas.
  void track_histogram(const std::string& name);

  /// Probe sampled at every tick; the result lands in the window as
  /// "probe.<name>". Probes must be read-only with respect to protocol
  /// state (see the determinism note above).
  using ProbeFn = std::function<double(sim::Time now)>;
  void add_probe(const std::string& name, ProbeFn fn);

  /// Per-node probe: `fn(node, now)` sampled for node ids [0, nodes).
  /// The vector lands in the window's `per_node` map (JSONL export
  /// only); derived aggregates are the caller's own scalar probes.
  using NodeProbeFn = std::function<double(std::uint32_t node, sim::Time now)>;
  void add_node_probe(const std::string& name, std::size_t nodes,
                      NodeProbeFn fn);

  // --- Convergence detector -------------------------------------------------

  /// Health predicate evaluated against each just-closed window; ALL
  /// predicates must hold for the window to count toward convergence.
  /// A failing window resets the healthy streak and exits convergence
  /// (so a later re-convergence is a new event — the recovery measure).
  using HealthFn = std::function<bool(const TimelineWindow&)>;
  void add_health_check(const std::string& name, HealthFn fn);

  /// Requires "rate.<counter>" to be flat across the W candidate
  /// windows before convergence is declared: max-min spread no larger
  /// than `rel_tolerance` * mean (with `abs_floor` absorbing near-zero
  /// rates). Flatness gates *entering* convergence only; rate blips do
  /// not exit it (health checks do).
  void require_flat_rate(const std::string& counter_name, double rel_tolerance,
                         double abs_floor = 1.0);

  // --- Ticking ---------------------------------------------------------------

  /// Closes the window ending at `now` (start = previous tick, or the
  /// attach time for the first window).
  void tick(sim::Time now);

  /// Arms a self-rescheduling tick every config.window of sim time.
  /// The timer goes inert when it would be the only pending event, so
  /// drain-style loops (Simulator::run) still terminate; it survives
  /// run_until/run_steps driving indefinitely. Call after the
  /// federation is formed — joining drains the queue and would spin on
  /// an armed timer. Templated on the simulator type (obs sits below
  /// the sim library in the link order), instantiated by callers that
  /// already link it.
  template <class Sim>
  void start(Sim& sim) {
    stop();
    armed_ = std::make_shared<bool>(true);
    if (!ticked_) last_tick_ = sim.now();
    arm_tick(sim);
  }
  /// Disarms the periodic tick (pending trampolines become no-ops).
  void stop();

  // --- Introspection ----------------------------------------------------------

  const TimelineConfig& config() const { return config_; }
  const std::deque<TimelineWindow>& windows() const { return windows_; }
  std::uint64_t windows_closed() const { return next_index_; }
  std::uint64_t evicted() const { return evicted_; }

  struct ConvergenceEvent {
    sim::Time at = 0;              ///< end of the W-th healthy window
    std::uint64_t window_index = 0;
  };
  bool converged() const { return in_convergence_; }
  const std::vector<ConvergenceEvent>& convergence_events() const {
    return events_;
  }
  /// Warm-up cutoff: the first time the detector declared convergence.
  std::optional<sim::Time> first_converged_at() const;
  /// First convergence declared at or after `t` — the re-convergence
  /// after a disruption that started at `t`; time-to-recover is the
  /// returned time minus `t`.
  std::optional<sim::Time> converged_after(sim::Time t) const;

  // --- Export -----------------------------------------------------------------

  /// CSV: one row per window, one column per scalar series (sorted
  /// name order, stable across runs), plus index/start/end/healthy.
  void write_csv(std::ostream& os) const;
  /// JSON lines: one window object per line, including per-node series.
  void write_jsonl(std::ostream& os) const;
  /// The last `max_windows` windows as a JSON array (flight records).
  void write_json_windows(std::ostream& os, std::size_t max_windows) const;

 private:
  struct CounterTrack {
    std::string name;
    Counter* counter = nullptr;
    std::uint64_t last = 0;
  };
  struct HistogramTrack {
    std::string name;
    Histogram* hist = nullptr;
    std::vector<std::uint64_t> last_buckets;
    std::uint64_t last_count = 0;
    double last_sum = 0.0;
  };
  struct NamedProbe {
    std::string name;
    ProbeFn fn;
  };
  struct NodeProbe {
    std::string name;
    std::size_t nodes = 0;
    NodeProbeFn fn;
  };
  struct NamedHealth {
    std::string name;
    HealthFn fn;
  };
  struct FlatRate {
    std::string series;  // "rate.<counter>"
    double rel_tolerance = 0.0;
    double abs_floor = 0.0;
  };

  bool flat_rates_ok() const;
  void update_convergence(const TimelineWindow& window);

  template <class Sim>
  void arm_tick(Sim& sim) {
    // Sampler ticks profile under telemetry, not whatever handler
    // happened to arm them.
    ScopedProfCategory prof_tag(ProfCategory::kTelemetry);
    sim.schedule_after(config_.window, [this, sim_ptr = &sim, flag = armed_] {
      if (!*flag) return;
      tick(sim_ptr->now());
      // Inert when the queue is otherwise empty: a lone self-
      // rescheduling sampler would keep drain loops from terminating.
      if (sim_ptr->pending_events() == 0) return;
      arm_tick(*sim_ptr);
    });
  }

  MetricsRegistry& registry_;
  TimelineConfig config_;
  std::vector<CounterTrack> counters_;
  std::vector<HistogramTrack> histograms_;
  std::vector<NamedProbe> probes_;
  std::vector<NodeProbe> node_probes_;
  std::vector<NamedHealth> health_checks_;
  std::vector<FlatRate> flat_rates_;

  std::deque<TimelineWindow> windows_;
  sim::Time last_tick_ = 0;
  bool ticked_ = false;
  std::uint64_t next_index_ = 0;
  std::uint64_t evicted_ = 0;

  std::size_t healthy_streak_ = 0;
  bool in_convergence_ = false;
  std::vector<ConvergenceEvent> events_;

  /// Shared liveness flag captured by the periodic tick trampoline, so
  /// a Timeline destroyed (or stopped) before the simulator drains
  /// leaves only inert closures behind.
  std::shared_ptr<bool> armed_;
};

}  // namespace roads::obs

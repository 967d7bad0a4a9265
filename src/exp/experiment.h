// Experiment drivers shared by the benchmark binaries and the
// integration tests: build ROADS / SWORD / the central repository under
// one parameter set and one workload, run the paper's query mix, and
// report the paper's metrics (query latency, update overhead, query
// message overhead, storage). Both systems see identical records and an
// identical query batch, so every comparison is apples-to-apples.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hierarchy/join_policy.h"
#include "record/query.h"
#include "sim/fault.h"
#include "sim/time.h"
#include "util/stats.h"

namespace roads::exp {

/// One experiment's parameter point. Defaults are the paper's §V
/// simulation defaults: 320 nodes x 500 records, 16 attributes,
/// 6-dimensional queries of range 0.25, degree-8 hierarchy, 1000-bucket
/// histograms, 500 queries, averaged over 10 runs.
struct ExpConfig {
  std::size_t nodes = 320;
  std::size_t records_per_node = 500;
  std::size_t attributes = 16;
  std::size_t query_dimensions = 6;
  double query_range_length = 0.25;
  std::size_t queries = 500;
  std::size_t runs = 10;
  std::size_t max_children = 8;
  std::size_t histogram_buckets = 1000;
  /// Use multi-resolution summaries instead of fixed histograms
  /// (ablation of the [11]-style alternative).
  bool numeric_mode_multires = false;
  std::size_t multires_budget = 64;
  /// Fig. 9: when set, the first 8 attributes become per-node windows
  /// of length overlap_factor / nodes.
  std::optional<double> overlap_factor;
  /// Anchor each node's data by its DFS rank in the balanced hierarchy
  /// (administrative locality -> branch summaries can prune interior
  /// levels); both systems see identical records either way.
  bool correlated_data = true;
  /// Replication overlay on (paper) / off (ablation: root-start only).
  bool overlay = true;
  /// Join steering policy (balanced = paper; random/proximity for the
  /// join ablation).
  hierarchy::JoinPolicyKind join_policy =
      hierarchy::JoinPolicyKind::kBalanced;
  /// Force every query to start at the root instead of a random node
  /// (automatic when the overlay is off).
  bool start_at_root = false;
  std::uint64_t seed = 1;
  /// ts and tr; the paper uses tr/ts = 0.1 (summaries change an order
  /// of magnitude slower than records).
  sim::Time summary_period = sim::seconds(100);
  sim::Time record_period = sim::seconds(10);
  /// Digest-suppression keepalive cadence handed to RoadsConfig: pushes
  /// with unchanged content are skipped except every K-th round. 0
  /// disables suppression (every round pushes fully — the baseline
  /// series in the Fig. 4 bench).
  std::size_t summary_keepalive_rounds = 3;
  /// Run the `runs` repetitions of average_runs on a thread pool (each
  /// run owns its simulator and RNGs; results are reduced in seed order
  /// so the average is bit-identical to the serial path). Benches
  /// accept --serial to turn this off.
  bool parallel_runs = true;
  /// Engine shards / worker threads per ROADS repetition (see
  /// FederationParams::threads). 1 = the sequential oracle engine;
  /// N > 1 runs each repetition on the sharded parallel engine
  /// (bit-identical results). Forces repetitions serial — the shards
  /// own the cores. The timeline sampler still works: its tick is a
  /// global (coordinator) event, so probes run between shard windows,
  /// never concurrently with them. Ignored by the SWORD/central
  /// drivers.
  std::size_t threads = 1;
  /// Fault schedule injected AFTER clean formation and stabilization
  /// (the paper measures a formed hierarchy under faults, not formation
  /// under faults). Empty = the fault-free paper setup. ROADS only;
  /// ignored by the SWORD/central drivers.
  sim::FaultPlan fault_plan;
  /// Gate each ROADS run on the structural invariant checker (after
  /// stabilization and again after the query batch); a violation throws
  /// so a bad run cannot silently pollute an averaged figure. Summary
  /// soundness probes are excluded — they would charge the §V meters.
  /// A failing run dumps its trace ring as a flight record
  /// (FLIGHT_invariants_seed<seed>.json) next to the bench output.
  bool verify_invariants = false;
  /// Trace-ring bound handed to FederationParams; 0 keeps the
  /// federation default (large enough for maintenance-window causal
  /// trees, bumped automatically when trace_out is set so a full query
  /// batch fits).
  std::size_t trace_capacity = 0;
  /// When set, the repetition with run_seed == seed writes its causal
  /// trace here as Chrome trace-event JSON (open in Perfetto or
  /// chrome://tracing).
  std::string trace_out;
  /// When set, the same repetition writes its instrument registry here
  /// in Prometheus text exposition.
  std::string metrics_out;
  /// Timeline telemetry sampling interval. 0 disables the Timeline
  /// unless timeline_out is set, in which case the summary period is
  /// used. The sampler tick is read-only (no messages, no federation
  /// RNG draws), so enabling it changes only event-queue scheduling.
  sim::Time probe_interval = 0;
  /// When set, the repetition with run_seed == seed writes its timeline
  /// as <timeline_out>.csv (scalar series per window) and
  /// <timeline_out>.jsonl (one window per line, per-node series
  /// included).
  std::string timeline_out;
  /// When set, the repetition with run_seed == seed runs with handler
  /// profiling on (FederationParams::profile — works at any thread
  /// count, never perturbs digests) and writes the profile here as
  /// JSON, plus flame-graph siblings <profile_out>.collapsed
  /// (flamegraph.pl input) and <profile_out>.speedscope.json (load at
  /// speedscope.app). The top hot-handler line goes to stderr.
  std::string profile_out;
};

/// The §V metrics from one run of one system.
struct RunMetrics {
  double latency_avg_ms = 0.0;
  double latency_p90_ms = 0.0;
  double query_bytes_avg = 0.0;
  double servers_contacted_avg = 0.0;
  double matches_avg = 0.0;
  /// Bytes one full soft-state refresh round generates, and the same
  /// normalized per second of simulated time (round bytes / period).
  double update_bytes_per_round = 0.0;
  double update_bytes_per_s = 0.0;
  /// Largest per-server storage footprint (summaries for ROADS, raw
  /// records for SWORD/central).
  double max_storage_bytes = 0.0;
  double queries_completed = 0.0;
  /// Admission-control accounting (ROADS only; 0 unless a concurrency
  /// limit is configured): total overload replies received across the
  /// batch, and how many queries the start server rejected outright —
  /// a rejected query still "completes" (the client is answered), so
  /// without this column a shed query is indistinguishable from a
  /// served one in the done fraction.
  double queries_shed = 0.0;
  double queries_rejected = 0.0;
  /// ROADS only: hierarchy height and maintenance (replica) messages
  /// per round.
  double hierarchy_height = 0.0;
  double maintenance_msgs_per_round = 0.0;
  /// ROADS only: fraction of queries whose resolution touched the root
  /// — the bottleneck measure the replication overlay exists to fix.
  double root_contact_fraction = 0.0;
  /// Timeline-derived (both 0 when the Timeline is off, see
  /// ExpConfig::probe_interval): sim-time of first convergence — the
  /// warm-up cutoff — and the largest measured time-to-recover across
  /// the fault plan's disruption windows. -1 means the detector never
  /// (re-)converged before the run ended.
  double converged_at_s = 0.0;
  double time_to_recover_s = 0.0;
  /// Wall-clock seconds (not sim time) of the engine-bound phase —
  /// stabilization plus the metered advance — and of the whole run.
  /// The speedup column of the scaling benches is the ratio of
  /// engine_wall_s between a 1-thread and an N-thread run; the query
  /// batch is event-at-a-time in both and would dilute the measure.
  double engine_wall_s = 0.0;
  double total_wall_s = 0.0;
  /// Snapshot of the run's instrument registry (net.* channel meters,
  /// roads.* protocol counters, overlay/central latency histograms),
  /// averaged element-wise across repetitions.
  util::MetricSet instruments;
};

/// Runs ROADS once at this parameter point. `run_seed` perturbs
/// topology, data and queries; the paper averages 10 such runs.
RunMetrics run_roads_once(const ExpConfig& config, std::uint64_t run_seed);

/// Same workload and queries through the SWORD baseline.
RunMetrics run_sword_once(const ExpConfig& config, std::uint64_t run_seed);

/// Averages `config.runs` runs of a system (seeds seed+0 .. seed+runs-1).
RunMetrics average_runs(
    const ExpConfig& config,
    const std::function<RunMetrics(const ExpConfig&, std::uint64_t)>& system);

}  // namespace roads::exp

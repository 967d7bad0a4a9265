// Scenario runner: executes a ScenarioSpec against a live federation.
//
// The runner builds the federation the spec describes (the deployment
// via exp::Deployment, telemetry via exp::attach_timeline),
// stabilizes it, then walks the phase script. Each phase compiles its
// stresses down to one phase-scoped sim::FaultPlan (churn, flapping
// and partitions become crash/partition windows clamped inside the
// phase — Network::apply_fault_plan orphans a replaced plan's pending
// windows, so windows must not outlive their phase), plus DelaySpace
// link extras and a workload hotspot, both undone at the boundary.
// Queries and record-mutation waves execute between engine advances at
// seed-drawn times.
//
// Determinism contract (the scenario_test golden gate): the Timeline
// is ticked MANUALLY at the runner's own cadence — never armed via
// start() — so no sampler events enter the engine's queue and the
// event stream is identical with and without telemetry, and identical
// between the sequential and the sharded engine. Every random choice
// (victims, query times, link pairs) draws from a scenario-private
// util::Rng, never the federation's. metrics_fingerprint() folds only
// protocol-level series; engine-shaped series (queue depths) are
// excluded, so outcome fingerprints and event digests are bit-
// identical at threads=1 and threads=N.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"

namespace roads::scenario {

struct ScenarioRunOptions {
  /// Engine shards (FederationParams::threads); 1 = sequential oracle.
  std::size_t threads = 1;
  /// Run the invariant sweep at every phase boundary (structure,
  /// replica TTL, storage accounting; single-root and soundness as the
  /// phase's spec demands). Violations land in PhaseOutcome.
  bool check_invariants = true;
  /// When non-empty, the run's timeline is written to
  /// <timeline_out>.csv and <timeline_out>.jsonl.
  std::string timeline_out;
  /// When non-empty, the federation runs with handler profiling on
  /// (FederationParams::profile — digest-neutral, so the determinism
  /// gate still holds) and one profile slice is cut per phase
  /// (Profiler::take_profile at the phase boundary). The slices land
  /// here as one JSON document, and each PhaseOutcome carries a
  /// greppable PROFILE line in the summary.
  std::string profile_out;
};

/// Per-phase slice of the run's RunMetrics-style measures.
struct PhaseOutcome {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::size_t queries_issued = 0;
  /// Queries actually served (open-loop phases exclude rejected ones —
  /// the overload reply completes the protocol but serves no data).
  std::size_t queries_completed = 0;
  /// Open-loop serving meters (0 for closed-loop phases): total
  /// overload replies clients saw, queries whose start server shed
  /// them outright, and the roads.query.cache.hit delta.
  std::size_t queries_shed = 0;
  std::size_t queries_rejected = 0;
  std::uint64_t cache_hits = 0;
  double latency_avg_ms = 0.0;
  /// Peak replica staleness (probe.staleness.replica.max_s) over the
  /// phase's telemetry windows.
  double staleness_peak_s = 0.0;
  /// roads.query.false_positives delta across the phase (the staleness
  /// attack's payoff measure).
  double false_positives = 0.0;
  /// First convergence at/after the phase start (absolute sim
  /// seconds), -1 when the detector never converged in the phase.
  double converged_at_s = -1.0;
  /// Convergence time minus the phase's first disruption start (or the
  /// phase start when the phase injects nothing); -1 = no convergence.
  double time_to_recover_s = -1.0;
  /// Invariant sweep at the phase boundary (empty when clean or when
  /// the sweep was disabled).
  std::vector<std::string> violations;
  std::size_t invariant_checks = 0;
  /// Hot-handler one-liner for this phase's profile slice (profiled
  /// runs only). Wall-clock shaped, so metrics_fingerprint excludes it.
  std::string profile_line;
};

struct ScenarioOutcome {
  std::string name;
  std::vector<PhaseOutcome> phases;
  /// Network decision digest after the final phase — the bit-exact
  /// replay identity.
  std::uint64_t event_digest = 0;
  double total_sim_s = 0.0;
  double wall_s = 0.0;

  /// FNV-1a over the protocol-level phase measures (bit patterns of
  /// the doubles, counts, violation counts). Excludes wall clock and
  /// engine-shaped series, so it must match across thread counts.
  std::uint64_t metrics_fingerprint() const;
  bool invariants_ok() const;
  /// Greppable per-phase summary: one "PHASE ..." line each plus a
  /// final "SCENARIO ..." line (CI folds these into the step summary).
  std::string summary() const;
};

/// Runs one scenario start to finish. Throws on spec/impossible
/// configurations (e.g. a flash-crowd attribute outside the schema);
/// invariant violations do not throw — they are reported per phase.
ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                             const ScenarioRunOptions& options = {});

}  // namespace roads::scenario

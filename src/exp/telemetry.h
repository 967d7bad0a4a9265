// Federation telemetry installer: wires an obs::Timeline to a live
// core::Federation. The Timeline itself is protocol-agnostic (it only
// sees the instrument registry); everything federation-specific — which
// counters to window, the staleness / divergence / queue / load health
// probes, and the convergence gates — is assembled here, in the one
// layer that can see both sides.
//
// Every probe is read-only with respect to the simulation: probes walk
// server state in deterministic (NodeId) order, draw no randomness from
// the federation's RNG, send no messages and never advance the clock,
// so attaching a Timeline cannot perturb replay digests or the §V
// meters beyond the sampler events themselves.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/timeline.h"
#include "sim/time.h"

namespace roads::core {
class Federation;
}

namespace roads::exp {

/// Knobs for attach_timeline. Defaults follow the federation's own
/// protocol constants where a bound has a natural source (staleness
/// bound <- summary_ttl) and stay cheap where sampling cost scales
/// with federation size (bounded divergence audit).
struct TelemetryOptions {
  /// Window/tick geometry handed to the Timeline.
  obs::TimelineConfig timeline;

  /// Replica / child-summary staleness health bound; 0 means "use the
  /// federation's summary_ttl" (an age past the TTL should have been
  /// swept — seeing one means sweeping itself is wedged).
  sim::Time staleness_bound = 0;

  /// Health bound on the divergence audit's false-negative rate (a
  /// false negative loses real resources; false positives only cost
  /// detour traffic).
  double divergence_threshold = 0.05;

  /// Sampled ground-truth audit per tick: `audit_queries` fresh random
  /// queries evaluated against at most `audit_server_sample` alive
  /// servers (rotating through the federation tick by tick, so every
  /// server is audited eventually even at 640 nodes).
  std::size_t audit_queries = 8;
  std::size_t audit_server_sample = 16;
  std::size_t audit_query_dimensions = 6;
  double audit_range_length = 0.25;
  /// Seed for the audit's private query stream (never the federation
  /// RNG — the audit must not perturb the run it observes).
  std::uint64_t audit_seed = 0x0b5e;

  /// Convergence flatness gate on the update channel's windowed rate
  /// (digest-suppressed keepalive waves make this series bursty by
  /// design, hence the generous default). <= 0 disables the gate.
  double flat_rate_tolerance = 4.0;
  /// Rates below this floor (bytes/s) are flat by definition — quiet
  /// suppressed windows should not divide by near-zero means.
  double flat_rate_floor = 64.0;

  /// Record per-node series (replica staleness and query visits per
  /// server) in each window. JSONL-only payload; costs O(nodes) doubles
  /// per window, so large sweeps may want it off.
  bool per_node_series = true;
};

/// Builds a Timeline over `fed`'s registry, registers the windowed
/// instruments (query/update/maintenance channels, completed-query
/// counter, latency histogram), installs the health probes — replica
/// and child-summary staleness, sampled summary-vs-records divergence,
/// the queue-depth watermark summed over every engine, query-load
/// imbalance (max/mean and Gini) — and arms the convergence detector
/// (staleness bounded + divergence below threshold + flat update rate
/// for the configured window streak).
///
/// The caller still owns starting the sampler: call
/// `timeline->start(fed.simulator())` — `timeline->start(*fed.sharded())`
/// under the sharded engine, whose coordinator heap alone would let the
/// sampler go inert — once the federation is formed
/// (Federation::add_server drains the event queue between joins, and a
/// self-rearming sampler would keep those drains from terminating).
std::unique_ptr<obs::Timeline> attach_timeline(core::Federation& fed,
                                               const TelemetryOptions& options);

}  // namespace roads::exp

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
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "obs/timeline.h"
#include "sim/time.h"

namespace roads::core {
class Federation;
}

namespace roads::exp {

/// Knobs for attach_timeline. The audit's sizes and the health bounds
/// are constants in telemetry.cpp: every caller used their defaults.
struct TelemetryOptions {
  /// Window/tick geometry handed to the Timeline.
  obs::TimelineConfig timeline;

  /// Replica / child-summary staleness health bound; 0 means "use the
  /// federation's summary_ttl" (an age past the TTL should have been
  /// swept — seeing one means sweeping itself is wedged).
  sim::Time staleness_bound = 0;

  /// Dimensions of the divergence audit's sampled queries.
  std::size_t audit_query_dimensions = 6;
  /// Seed for the audit's private query stream (never the federation
  /// RNG — the audit must not perturb the run it observes).
  std::uint64_t audit_seed = 0x0b5e;
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
/// The caller still owns starting the sampler: call start_timeline
/// once the federation is formed (Federation::add_server drains the
/// event queue between joins, and a self-rearming sampler would keep
/// those drains from terminating).
std::unique_ptr<obs::Timeline> attach_timeline(core::Federation& fed,
                                               const TelemetryOptions& options);

/// Starts `timeline`'s sampler on the engine that runs `fed`'s events:
/// the sharded engine when there is one, else the simulator. The
/// sampler re-arms only while events are pending, so started on a
/// sharded run's coordinator heap, which holds nothing but the
/// sampler's own tick, it would go inert after one window. Under
/// sharding its ticks are global events that bound the parallel
/// windows, so probes read protocol state only between windows.
void start_timeline(core::Federation& fed, obs::Timeline& timeline);

/// Opens `path` for `write` and reports "wrote <path>" on stderr, or a
/// warning when the file cannot be opened.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write);

/// Writes a run's observability files, skipping each empty path:
/// `trace_out` as a Chrome trace (open in Perfetto) when `fed` keeps a
/// trace ring, `metrics_out` as Prometheus text, and
/// `timeline_out`.csv / `timeline_out`.jsonl when there is a timeline,
/// each through write_file.
void write_observability(core::Federation& fed, const obs::Timeline* timeline,
                         const std::string& trace_out,
                         const std::string& metrics_out,
                         const std::string& timeline_out);

}  // namespace roads::exp

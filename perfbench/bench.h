// Shared types of the ROADS benchmark binary (see NOTES.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "record/query.h"
#include "roads/federation.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall seconds the timed phase is sized for on the reference host
  /// (work is fixed from this number, never from a measured speed, so
  /// the exact metrics depend on (workload, seed, seconds) alone).
  double seconds = 10.0;
  bool trace = false;
  /// Small federation for the determinism self-test.
  bool tiny = false;
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;  ///< identical for a given (workload, seed, seconds)
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< failed output checks
  std::size_t checks = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t fingerprint = 0;
  double timed_wall_s = 0.0;

  void add(const std::string& name, double value, const std::string& unit,
           bool exact = false) {
    metrics.push_back({name, value, unit, exact});
  }
  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  }
};

/// One issued query: the program's answer, the oracle's, and (traced
/// run) the servers it contacted, for the layer replays.
struct QueryRecord {
  std::uint32_t query = 0;  ///< index into the workload's query list
  bool complete = false;
  bool rejected = false;
  std::uint32_t sheds = 0;
  std::int64_t latency_us = 0;
  std::uint64_t matches = 0;
  std::uint64_t truth = 0;
  std::vector<roads::sim::NodeId> contacted;
};

/// Everything the layer replays read after the timed phase.
struct ReplayInput {
  roads::core::Federation& fed;
  const std::vector<roads::record::Query>& queries;
  const std::vector<QueryRecord>& outcomes;
  /// Trace-ring snapshot taken right after the query phase.
  const std::vector<roads::obs::TraceEvent>& ring;
  std::uint64_t timed_events = 0;
};

/// Post-phase replays of each layer's public kernels on the run's own
/// queries, stores and summaries (traced run only).
void replay_layers(const ReplayInput& in, Tracer& tracer, Report& report);

Report run_workload(const Options& options);

}  // namespace perfbench

// Shared scaffolding for the figure/table benchmark binaries: flag
// handling over exp::ExpConfig and the standard header each bench
// prints. Every bench accepts:
//   --runs=N --queries=N --nodes=N --records=N --seed=N --full --serial
//   --threads=N
// where --full switches to the paper's exact profile (10 runs, 500
// queries) instead of the quicker default and --serial disables the
// thread-pooled repetitions (results are identical either way).
// --threads=N runs each ROADS repetition on the sharded parallel
// engine with N shards (bit-identical metrics, see
// sim/sharded_simulator.h); repetitions then go serial — the shards
// own the cores.
//
// The --fault-* group injects message-level faults (sim/fault.h) into
// every ROADS run so any figure can be re-measured degraded:
//   --fault-loss=P --fault-dup=P --fault-reorder=P --fault-jitter-ms=N
// and --check-invariants gates each run on the structural invariant
// checker (a violation aborts the bench instead of averaging bad runs).
// Faults are injected after clean formation; SWORD/central baselines
// ignore them.
//
// Observability flags, uniform across every bench:
//   --trace-out=PATH    write the seed run's causal trace as Chrome
//                       trace-event JSON (open in Perfetto)
//   --metrics-out=PATH  write the seed run's instrument registry as
//                       Prometheus text
//   --baseline=PATH     previous BENCH_<name>.json to diff against;
//                       >threshold regressions on latency/byte columns
//                       make the bench exit non-zero (CI gate)
//   --regress-threshold=F  relative regression tolerance (default 0.10)
//   --timeline-out=PATH  write the seed run's telemetry timeline as
//                       PATH.csv + PATH.jsonl (per-window rates,
//                       latency quantiles, staleness/divergence probes)
//   --probe-interval=S  timeline sampling interval in seconds of sim
//                       time (0 = one window per summary period)
//   --profile-out=PATH  run the seed repetition with handler profiling
//                       on and write PATH (PROFILE json) plus
//                       PATH.collapsed / PATH.speedscope.json flame
//                       graphs; works at any --threads count
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_baseline.h"
#include "exp/experiment.h"
#include "obs/export.h"
#include "util/flags.h"
#include "util/table.h"

namespace roads::bench {

struct BenchProfile {
  exp::ExpConfig base;
  bool full = false;
  /// Previous BENCH_<name>.json to gate against; empty = no gate.
  std::string baseline_path;
  /// Relative regression tolerance for the gate (0.10 = +10%).
  double regress_threshold = 0.10;
};

inline BenchProfile parse_profile(int argc, char** argv) {
  util::Flags flags(argc, argv);
  BenchProfile profile;
  profile.full = flags.get_bool("full", false);
  // Quick profile: enough repetitions for stable shape, minutes not
  // hours on one core. --full restores the paper's 10 runs x 500
  // queries.
  profile.base.runs = profile.full ? 10 : 2;
  profile.base.queries = profile.full ? 500 : 250;
  profile.base.runs = static_cast<std::size_t>(
      flags.get_int("runs", static_cast<std::int64_t>(profile.base.runs)));
  profile.base.queries = static_cast<std::size_t>(flags.get_int(
      "queries", static_cast<std::int64_t>(profile.base.queries)));
  profile.base.nodes = static_cast<std::size_t>(
      flags.get_int("nodes", static_cast<std::int64_t>(profile.base.nodes)));
  profile.base.records_per_node = static_cast<std::size_t>(flags.get_int(
      "records", static_cast<std::int64_t>(profile.base.records_per_node)));
  profile.base.seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // Repetitions run on a thread pool by default; --serial restores the
  // one-at-a-time order (identical results, for timing or debugging).
  profile.base.parallel_runs = !flags.get_bool("serial", false);
  // Sharded parallel engine inside each ROADS repetition; 1 = the
  // sequential oracle. Metrics are bit-identical either way, but wall
  // clocks differ, so write_report tags the profile with it and
  // bench_compare treats differing-thread reports as profile mismatch.
  profile.base.threads =
      static_cast<std::size_t>(flags.get_int("threads", 1));
  // Degradation-under-fault columns: message-level faults only (loss,
  // duplication, reordering jitter) — schedules that break the tree
  // need the chaos tests' bespoke drivers, not a figure sweep.
  profile.base.fault_plan.loss_rate = flags.get_double("fault-loss", 0.0);
  profile.base.fault_plan.duplicate_rate = flags.get_double("fault-dup", 0.0);
  profile.base.fault_plan.reorder_rate =
      flags.get_double("fault-reorder", 0.0);
  profile.base.fault_plan.max_jitter =
      sim::ms(flags.get_int("fault-jitter-ms", 0));
  profile.base.verify_invariants = flags.get_bool("check-invariants", false);
  // Observability outputs come from the designated seed run (see
  // ExpConfig::trace_out); the flags just thread the paths through.
  profile.base.trace_out = flags.get_string("trace-out", "");
  profile.base.metrics_out = flags.get_string("metrics-out", "");
  profile.base.timeline_out = flags.get_string("timeline-out", "");
  profile.base.probe_interval =
      sim::seconds(flags.get_int("probe-interval", 0));
  profile.base.profile_out = flags.get_string("profile-out", "");
  profile.base.trace_capacity = static_cast<std::size_t>(
      flags.get_int("trace-capacity",
                    static_cast<std::int64_t>(profile.base.trace_capacity)));
  profile.baseline_path = flags.get_string("baseline", "");
  profile.regress_threshold = flags.get_double("regress-threshold", 0.10);
  const auto unused = flags.unused_flags();
  if (!unused.empty()) {
    std::cerr << "warning: unused flags: " << unused << "\n";
  }
  return profile;
}

/// The node-count sweep of Figs. 3-5 (64..640 step 64 with --full,
/// otherwise a 5-point subset covering the same span). When --nodes
/// asks for more than the paper's 640, the sweep keeps doubling past
/// the range (1280, 2560, ...) up to and including that count — the
/// scaling leg of the sharded-engine benches (fig3 at 10k+ nodes).
inline std::vector<std::size_t> node_sweep(bool full,
                                           std::size_t max_nodes = 0) {
  std::vector<std::size_t> sweep;
  if (full) {
    sweep = {64, 128, 192, 256, 320, 384, 448, 512, 576, 640};
  } else {
    sweep = {64, 160, 320, 448, 640};
  }
  if (max_nodes > 640) {
    for (std::size_t n = 1280; n < max_nodes; n *= 2) sweep.push_back(n);
    sweep.push_back(max_nodes);
  }
  return sweep;
}

inline void print_header(const char* title, const BenchProfile& profile) {
  std::printf("%s\n", title);
  std::printf("profile: %s (runs=%zu, queries=%zu, seed=%llu)\n",
              profile.full ? "full/paper" : "quick", profile.base.runs,
              profile.base.queries,
              static_cast<unsigned long long>(profile.base.seed));
  if (!profile.base.fault_plan.empty()) {
    std::printf("faults:  %s%s\n", profile.base.fault_plan.describe().c_str(),
                profile.base.verify_invariants ? " [invariants gated]" : "");
  }
  std::printf("\n");
}

/// Emits one table cell as JSON: numeric-looking cells become numbers
/// so downstream tooling can plot without re-parsing strings.
inline std::string json_cell(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size()) return obs::json_number(v);
  }
  return "\"" + obs::json_escape(cell) + "\"";
}

/// Peak resident set of this process so far, MiB (VmHWM in
/// /proc/self/status); -1 where the kernel does not report it.
inline double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// A named number a report carries beside its table.
using ReportExtras = std::vector<std::pair<std::string, double>>;

/// Writes the bench's result table to BENCH_<name>.json in the working
/// directory — the machine-readable twin of the printed ASCII table,
/// tagged with the profile so quick and full runs are distinguishable.
/// `extras` become top-level numeric fields.
inline void write_report(const std::string& name, const BenchProfile& profile,
                         const util::Table& table,
                         const ReportExtras& extras = {}) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"bench\": \"" << obs::json_escape(name) << "\",\n";
  os << "  \"profile\": {\"full\": " << (profile.full ? "true" : "false")
     << ", \"runs\": " << profile.base.runs
     << ", \"queries\": " << profile.base.queries
     << ", \"nodes\": " << profile.base.nodes
     << ", \"records_per_node\": " << profile.base.records_per_node
     << ", \"seed\": " << profile.base.seed
     << ", \"threads\": " << profile.base.threads
     << ", \"fault_loss\": " << profile.base.fault_plan.loss_rate
     << ", \"fault_dup\": " << profile.base.fault_plan.duplicate_rate
     << ", \"fault_reorder\": " << profile.base.fault_plan.reorder_rate
     << ", \"fault_jitter_us\": " << profile.base.fault_plan.max_jitter
     << "},\n";
  for (const auto& [key, value] : extras) {
    os << "  \"" << obs::json_escape(key) << "\": " << obs::json_number(value)
       << ",\n";
  }
  os << "  \"headers\": [";
  for (std::size_t i = 0; i < table.headers().size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << obs::json_escape(table.headers()[i]) << "\"";
  }
  os << "],\n  \"rows\": [\n";
  for (std::size_t r = 0; r < table.rows().size(); ++r) {
    os << "    [";
    const auto& row = table.rows()[r];
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ", ";
      os << json_cell(row[c]);
    }
    os << "]" << (r + 1 < table.rows().size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cerr << "wrote " << path << "\n";
}

/// write_report plus the regression gate: when --baseline was given,
/// re-loads the just-written report, diffs the latency/byte columns
/// against the baseline and returns 1 (bench exit code) if anything
/// regressed past the threshold. A missing or unreadable baseline only
/// warns — CI's first run has nothing to compare against yet.
inline int finish_report(const std::string& name, const BenchProfile& profile,
                         const util::Table& table,
                         const ReportExtras& extras = {}) {
  write_report(name, profile, table, extras);
  if (profile.baseline_path.empty()) return 0;

  ReportData current;
  ReportData baseline;
  try {
    current = load_report("BENCH_" + name + ".json");
  } catch (const std::exception& e) {
    std::cerr << "warning: cannot re-load current report: " << e.what()
              << "\n";
    return 0;
  }
  try {
    baseline = load_report(profile.baseline_path);
  } catch (const std::exception& e) {
    std::cerr << "warning: no usable baseline (" << e.what()
              << "); skipping regression gate\n";
    return 0;
  }

  const auto check =
      compare_reports(current, baseline, profile.regress_threshold);
  for (const auto& note : check.notes) {
    std::cerr << "baseline: " << note << "\n";
  }
  if (check.ok()) {
    std::cerr << "baseline: " << check.cells_compared
              << " cells within +" << profile.regress_threshold * 100
              << "% of " << profile.baseline_path << "\n";
    return 0;
  }
  std::cerr << "baseline: " << check.regressions.size()
            << " regression(s) vs " << profile.baseline_path << ":\n";
  for (const auto& r : check.regressions) {
    std::cerr << "  " << r.to_string() << "\n";
  }
  return 1;
}

}  // namespace roads::bench

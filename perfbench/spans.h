// Benchmark-side span recorder for the traced run.
//
// Spans wrap the benchmark's own calls into the program (set-up phases,
// every run_query / issue_query / RecordStore::update / advance slice
// of the timed phase, and each post-phase layer replay). They are kept
// in memory and written as one JSON document when the run ends. A
// disabled tracer records nothing, so the untraced run pays one branch
// per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  std::uint32_t parent = 0;  // 1-based index of the parent span; 0 = root
  std::uint64_t request = 0; // query index + 1; 0 = not a request
};

/// Per-name aggregate: count, total and self time (span minus the part
/// its direct children cover).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its id (0 when
  /// disabled). `request` is the query index + 1 (0 = none).
  std::uint32_t begin(const char* name, std::uint64_t request = 0);
  void end(std::uint32_t id);

  std::map<std::string, SpanTotals> totals() const;

  void write_json(std::ostream& os) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench

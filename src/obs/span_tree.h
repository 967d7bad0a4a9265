// Causal span trees reconstructed from the flat TraceBuffer stream.
//
// A span is an interval of attributable work: a message transit (opened
// by kSend, closed by kDeliver/kDrop), a handler's processing or
// service window (kSpanBegin/kSpanEnd), or a whole-trace root (a query
// opened by kQueryStart and closed by kQueryComplete, or an explicit
// root such as a summary-refresh wave). Parent links come from the
// TraceContext each event was recorded under, so SpanTree::build turns
// the mixed event stream back into one tree per root cause.
//
// The tree is flat: one vector of spans in ascending id order, found by
// binary search. A span id is allocated when the span's first event is
// recorded, so a buffer's spans are first seen in id order and build()
// appends them as they come; only a stream whose oldest history was
// evicted (a placeholder first seen after younger spans) needs a sort.
// A span's label is a view of its event's static label.
//
// query_critical_path() walks the chain of spans from a query's
// terminal event back to its root and attributes every microsecond of
// [root start, terminal] to exactly one phase — network transit,
// handler processing (incl. service/retrieval time), queueing (gaps
// where no span was active) or false-positive detours (transit into a
// hop whose summary matched but whose store had nothing). The phases
// partition the interval, so they sum to the measured end-to-end
// latency exactly.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace roads::obs {

enum class SpanCategory : std::uint8_t {
  kRoot = 0,        // whole-trace span (query, refresh wave, ...)
  kNetwork = 1,     // message transit
  kProcessing = 2,  // per-hop handler work (query evaluation, merge)
  kService = 3,     // record retrieval / service-model delay
  kOther = 4,       // explicit span with an unknown label
};

const char* to_string(SpanCategory category);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t trace = 0;
  std::uint64_t parent = 0;
  std::int64_t start_us = -1;  // -1: begin event was evicted
  std::int64_t end_us = -1;    // -1: never closed (or end evicted)
  std::uint32_t node = 0;      // actor (sender for network spans)
  std::uint32_t peer = 0;      // receiver for network spans
  std::uint64_t bytes = 0;
  SpanCategory category = SpanCategory::kOther;
  std::string_view label;  // channel name or span taxonomy label
  bool dropped = false;          // closed by a kDrop
  bool false_positive = false;   // a kQueryFalsePositive fired inside it

  bool closed() const { return end_us >= 0; }
  std::int64_t duration_us() const {
    return (start_us >= 0 && end_us >= start_us) ? end_us - start_us : 0;
  }
};

/// Point event pinned to a span (query hops, redirects, results...).
struct SpanMarker {
  TraceKind kind = TraceKind::kQueryHop;
  std::int64_t at_us = 0;
  std::uint64_t span = 0;   // span the marker fired inside
  std::uint64_t trace = 0;
  std::uint32_t node = 0;
  double value = 0.0;
};

class SpanTree {
 public:
  /// Reconstructs spans and markers from an oldest-first event
  /// snapshot (TraceBuffer::events()). Events with span 0 (untraced
  /// legacy stream) are ignored.
  static SpanTree build(const std::vector<TraceEvent>& events);

  const Span* find(std::uint64_t id) const;
  /// Every span, ascending by id.
  const std::vector<Span>& spans() const { return spans_; }

  /// Root span ids, ascending (one per causal tree seen).
  std::vector<std::uint64_t> traces() const;
  /// All spans belonging to one trace, start-time order.
  std::vector<const Span*> trace_spans(std::uint64_t trace) const;
  /// Direct children of a span, start-time order.
  std::vector<const Span*> children(std::uint64_t id) const;
  /// Spans whose parent id is non-zero but absent from the tree
  /// (history evicted or a propagation bug). Optionally restricted to
  /// one trace (0 = all).
  std::vector<const Span*> orphans(std::uint64_t trace = 0) const;
  /// Spans that were never closed (optionally one trace; 0 = all).
  std::vector<const Span*> unclosed(std::uint64_t trace = 0) const;

  const std::vector<SpanMarker>& markers() const { return markers_; }

 private:
  std::vector<Span> spans_;  // ascending id
  std::vector<SpanMarker> markers_;
};

/// Which instant ends a query's critical path: the last hop arrival
/// (forwarding latency, the §V-A metric) or the last result-batch
/// arrival (total response time, Fig. 11).
enum class QueryEndpoint { kForwarding, kResponse };

struct CriticalPath {
  bool complete = false;      // terminal found and chain reached the root
  std::int64_t total_us = 0;  // terminal - root start; == sum of phases
  std::int64_t network_us = 0;
  std::int64_t processing_us = 0;
  std::int64_t queueing_us = 0;
  std::int64_t detour_us = 0;  // transit into false-positive hops
  std::size_t hops = 0;        // network spans on the path
  std::uint64_t terminal_span = 0;
  std::int64_t terminal_at_us = 0;
};

/// Walks the span chain from the query's terminal marker back to the
/// root and partitions [root start, terminal] into the four phases.
/// Returns complete=false when no terminal marker exists for the
/// endpoint (e.g. kResponse on a query with no results) or when the
/// chain is broken by evicted history.
CriticalPath query_critical_path(const SpanTree& tree, std::uint64_t trace,
                                 QueryEndpoint endpoint);

}  // namespace roads::obs

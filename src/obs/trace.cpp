#include "obs/trace.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace roads::obs {

constinit thread_local TraceContext detail::t_trace_context{};

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSend:
      return "send";
    case TraceKind::kDeliver:
      return "deliver";
    case TraceKind::kDrop:
      return "drop";
    case TraceKind::kJoin:
      return "join";
    case TraceKind::kLeave:
      return "leave";
    case TraceKind::kHeartbeatMiss:
      return "heartbeat_miss";
    case TraceKind::kRejoin:
      return "rejoin";
    case TraceKind::kRootElection:
      return "root_election";
    case TraceKind::kQueryStart:
      return "query_start";
    case TraceKind::kQueryHop:
      return "query_hop";
    case TraceKind::kQueryRedirect:
      return "query_redirect";
    case TraceKind::kQueryFalsePositive:
      return "query_false_positive";
    case TraceKind::kQueryComplete:
      return "query_complete";
    case TraceKind::kQueryResult:
      return "query_result";
    case TraceKind::kSpanBegin:
      return "span_begin";
    case TraceKind::kSpanEnd:
      return "span_end";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("TraceBuffer: capacity must be positive");
  }
  ring_.reserve(capacity);
}

std::vector<std::pair<TraceKind, std::uint64_t>> TraceBuffer::dropped_by_kind()
    const {
  std::vector<std::pair<TraceKind, std::uint64_t>> out;
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    if (dropped_kind_[k] != 0) {
      out.emplace_back(static_cast<TraceKind>(k), dropped_kind_[k]);
    }
  }
  return out;
}

void TraceBuffer::bind_metrics(MetricsRegistry& registry) {
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    auto& counter = registry.counter(
        std::string("obs.trace.dropped.") +
        to_string(static_cast<TraceKind>(k)));
    drop_counters_[k] = &counter;
    // Credit evictions that happened before the registry was attached.
    if (dropped_kind_[k] > counter.value()) {
      counter.inc(dropped_kind_[k] - counter.value());
    }
  }
}

void TraceBuffer::record(const TraceEvent& event) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);  // within the reserve: no reallocation
    return;
  }
  TraceEvent& oldest = ring_[head_];
  const auto k = static_cast<std::size_t>(oldest.kind);
  ++dropped_;
  ++dropped_kind_[k];
  if (drop_counters_[k] != nullptr) drop_counters_[k]->inc();
  oldest = event;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
}

std::uint64_t TraceBuffer::next_span() { return ++next_span_; }

template <typename Keep>
std::vector<TraceEvent> TraceBuffer::select(std::size_t skip,
                                            Keep keep) const {
  // The oldest event sits at head_ (0 until the ring first fills), so
  // the buffered events are [head_, size) followed by [0, head_).
  const std::size_t n = ring_.size();
  const auto at = [this, n](std::size_t i) -> const TraceEvent& {
    return ring_[head_ + i < n ? head_ + i : head_ + i - n];
  };
  std::vector<TraceEvent> out;
  out.reserve(n - skip);
  for (std::size_t i = skip; i < n; ++i) {
    if (keep(at(i))) out.push_back(at(i));
  }
  return out;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  return select(0, [](const TraceEvent&) { return true; });
}

std::vector<TraceEvent> TraceBuffer::span_events(std::uint64_t span) const {
  return select(0, [span](const TraceEvent& ev) { return ev.span == span; });
}

std::vector<TraceEvent> TraceBuffer::trace_events(std::uint64_t trace,
                                                  std::uint64_t since) const {
  // The i-th oldest buffered event was recorded at position oldest + i.
  const std::uint64_t oldest = recorded_ - ring_.size();
  const auto skip = static_cast<std::size_t>(
      since > oldest ? std::min<std::uint64_t>(since - oldest, ring_.size())
                     : 0);
  return select(skip,
                [trace](const TraceEvent& ev) { return ev.trace == trace; });
}

std::vector<TraceEvent> TraceBuffer::events_of(TraceKind kind) const {
  return select(0, [kind](const TraceEvent& ev) { return ev.kind == kind; });
}

void TraceBuffer::clear() {
  ring_.clear();  // keeps the reserve
  head_ = 0;
  dropped_ = 0;
  for (auto& d : dropped_kind_) d = 0;
}

}  // namespace roads::obs

#include "obs/trace.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

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
}

std::size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::uint64_t TraceBuffer::dropped(TraceKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_kind_[static_cast<std::size_t>(kind)];
}

std::vector<std::pair<TraceKind, std::uint64_t>> TraceBuffer::dropped_by_kind()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<TraceKind, std::uint64_t>> out;
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    if (dropped_kind_[k] != 0) {
      out.emplace_back(static_cast<TraceKind>(k), dropped_kind_[k]);
    }
  }
  return out;
}

void TraceBuffer::bind_metrics(MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(mutex_);
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

void TraceBuffer::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() == capacity_) {
    const auto k = static_cast<std::size_t>(ring_.front().kind);
    ring_.pop_front();
    ++dropped_;
    ++dropped_kind_[k];
    if (drop_counters_[k] != nullptr) drop_counters_[k]->inc();
  }
  ring_.push_back(std::move(event));
  ++recorded_;
}

std::uint64_t TraceBuffer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t TraceBuffer::next_span() {
  return next_span_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::vector<TraceEvent> TraceBuffer::span_events(std::uint64_t span) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  for (const auto& ev : ring_) {
    if (ev.span == span) out.push_back(ev);
  }
  return out;
}

std::vector<TraceEvent> TraceBuffer::trace_events(std::uint64_t trace,
                                                  std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // ring_[i] was recorded at position oldest + i.
  const std::uint64_t oldest = recorded_ - ring_.size();
  const std::uint64_t skip =
      since > oldest ? std::min<std::uint64_t>(since - oldest, ring_.size())
                     : 0;
  const auto begin = ring_.begin() + static_cast<std::ptrdiff_t>(skip);
  const auto in_trace = [trace](const TraceEvent& ev) {
    return ev.trace == trace;
  };
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(
      std::count_if(begin, ring_.end(), in_trace)));
  std::copy_if(begin, ring_.end(), std::back_inserter(out), in_trace);
  return out;
}

std::vector<TraceEvent> TraceBuffer::events_of(TraceKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  for (const auto& ev : ring_) {
    if (ev.kind == kind) out.push_back(ev);
  }
  return out;
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  dropped_ = 0;
  for (auto& d : dropped_kind_) d = 0;
}

}  // namespace roads::obs

// Structured event tracing. A TraceBuffer is a bounded ring of typed
// events — message sends/deliveries with channel and byte size, server
// join/leave/heartbeat-miss/rejoin transitions, and query lifecycle
// spans (start, per-hop arrival with latency, redirects including
// summary false positives, completion). Bounded capacity + eviction
// keeps long simulations at O(capacity) memory; the dropped() counters
// say how much history was lost, per event kind. recorded() numbers the
// events as they arrive, so a reader can mark a position and later read
// only what was recorded after it (trace_events' `since`).
//
// One engine thread writes and reads a ring (the network refuses a
// trace once the sharded coordinator is attached), so recording is a
// plain store into a flat array: no lock, and no allocation after the
// first. Events are trivially copyable; a label points at static
// storage (a string literal or sim::to_string(Channel)), never at a
// caller's string.
//
// Causal tracing: every event carries (trace, span, parent) so the
// flat stream reconstructs into parent-child span trees (obs::SpanTree).
// A TraceContext names the span currently executing. It rides the
// event engine the way the profile category does (sim::Simulator stamps
// each scheduled event with the current context and installs it while
// the event runs), so a message transit becomes a child span of
// whatever handler sent it and deferred work stays in its tree without
// any handler passing contexts by hand. `trace` is the id of the tree's
// root span, so one query / refresh wave / heartbeat wave can be pulled
// out of the mixed stream with a single filter.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace roads::obs {

class MetricsRegistry;

enum class TraceKind : std::uint8_t {
  // Network layer (span = message transit span; begins at kSend, ends
  // at kDeliver or kDrop).
  kSend = 0,     // node -> peer, bytes on `label` channel
  kDeliver = 1,  // delivery event fired at peer
  kDrop = 2,     // lost to a down node or the loss coin
  // Hierarchy maintenance.
  kJoin = 3,           // node joined under peer
  kLeave = 4,          // node left gracefully
  kHeartbeatMiss = 5,  // node declared peer failed
  kRejoin = 6,         // node starts rejoining via candidate peer
  kRootElection = 7,   // node elected itself root
  // Query lifecycle (span != 0).
  kQueryStart = 8,          // issued at node; begins the query root span
  kQueryHop = 9,            // arrived at node; value = latency-so-far ms
  kQueryRedirect = 10,      // node redirected to value targets
  kQueryFalsePositive = 11, // summary matched but node had nothing
  kQueryComplete = 12,      // value = matching records; ends root span
  kQueryResult = 13,        // result batch arrived; value = records
  // Explicit spans (handler processing, service time, trace roots).
  kSpanBegin = 14,  // opens span `span` under `parent`; label = taxonomy
  kSpanEnd = 15,    // closes span `span`
};

/// Number of distinct TraceKind values (for per-kind accounting).
constexpr std::size_t kTraceKindCount = 16;

const char* to_string(TraceKind kind);

/// The causal position a piece of work executes in: which tree it
/// belongs to (`trace` = root span id) and which span is currently open
/// (`span` — new child spans and messages parent under it). A
/// default-constructed context is inactive: work started under it roots
/// a fresh tree instead of extending one.
struct TraceContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;

  bool active() const { return trace != 0; }
  /// The context a child span `span_id` executes under.
  TraceContext child(std::uint64_t span_id) const {
    return {trace != 0 ? trace : span_id, span_id};
  }
};

namespace detail {
/// The context of the work executing on this thread: the running
/// event's (installed by the engine) unless a ScopedTraceContext
/// overrides it. constinit lets every access skip the TLS init wrapper.
extern constinit thread_local TraceContext t_trace_context;
}  // namespace detail

/// The context a span opened, a message sent or an event scheduled
/// right now belongs to.
inline TraceContext current_trace_context() {
  return detail::t_trace_context;
}

/// Installs `ctx` as the current context for the scope (nested scopes
/// shadow; the previous context returns on exit). The engine wraps each
/// event in one; beyond that, a client issuing its first message and
/// sim::TraceSpan use it. Everything sent or scheduled inside the scope
/// carries `ctx`.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : saved_(detail::t_trace_context) {
    detail::t_trace_context = ctx;
  }
  ~ScopedTraceContext() { detail::t_trace_context = saved_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

struct TraceEvent {
  std::int64_t at_us = 0;   // simulation time
  TraceKind kind = TraceKind::kSend;
  std::uint64_t span = 0;   // span this event belongs to; 0 = none
  std::uint32_t node = 0;   // primary actor
  std::uint32_t peer = 0;   // counterpart (receiver, parent, target...)
  std::uint64_t bytes = 0;
  double value = 0.0;       // kind-specific scalar (latency ms, counts)
  std::string_view label;   // channel name or short annotation (static)
  std::uint64_t trace = 0;  // root span id of the causal tree; 0 = none
  std::uint64_t parent = 0; // parent span id; 0 = root / not a span
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 8192);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  /// Events evicted so far to keep the buffer bounded (all kinds).
  std::uint64_t dropped() const { return dropped_; }
  /// Events of one kind evicted so far.
  std::uint64_t dropped(TraceKind kind) const {
    return dropped_kind_[static_cast<std::size_t>(kind)];
  }
  /// Per-kind eviction counts, only kinds with drops, kind-ordered.
  std::vector<std::pair<TraceKind, std::uint64_t>> dropped_by_kind() const;

  /// Mirrors eviction counts into `registry` as
  /// "obs.trace.dropped.<kind>" counters, so long chaos runs can tell
  /// which history was evicted without holding the buffer. Counters are
  /// bumped as evictions happen; existing drops are credited on bind.
  void bind_metrics(MetricsRegistry& registry);

  /// Appends an event, overwriting the oldest when full.
  void record(const TraceEvent& event);

  /// Events recorded so far, evicted or not: the position the next
  /// event takes. Only grows; clear() does not reset it.
  std::uint64_t recorded() const { return recorded_; }

  /// Allocates a fresh span id (1, 2, ...).
  std::uint64_t next_span();

  /// Oldest-first snapshot of everything currently buffered.
  std::vector<TraceEvent> events() const;
  /// Oldest-first snapshot restricted to one span id.
  std::vector<TraceEvent> span_events(std::uint64_t span) const;
  /// Oldest-first snapshot restricted to one causal tree (root span id),
  /// among the buffered events recorded at or after position `since`
  /// (a recorded() value). A `since` older than the oldest buffered
  /// event reads from the oldest one; only the slice is scanned.
  std::vector<TraceEvent> trace_events(std::uint64_t trace,
                                       std::uint64_t since = 0) const;
  /// Oldest-first snapshot restricted to one kind.
  std::vector<TraceEvent> events_of(TraceKind kind) const;

  void clear();

 private:
  /// Oldest-first copy of the buffered events `keep` accepts, from the
  /// `skip`-th oldest on.
  template <typename Keep>
  std::vector<TraceEvent> select(std::size_t skip, Keep keep) const;

  const std::size_t capacity_;
  // Reserved to capacity_ up front and never reallocated: it grows by
  // push_back until full, then ring_[head_] (the oldest event) is
  // overwritten in place and head_ advances.
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t dropped_kind_[kTraceKindCount] = {};
  class Counter* drop_counters_[kTraceKindCount] = {};
  std::uint64_t next_span_ = 0;
};

}  // namespace roads::obs

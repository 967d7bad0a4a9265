// Simulated message network.
//
// Wraps the Simulator and DelaySpace into a point-to-point message
// service: send(from, to, bytes, channel, deliver) schedules `deliver`
// after the pairwise latency and accounts the bytes against a traffic
// channel. The per-channel meters are exactly the paper's metrics:
// update overhead (kUpdate), query message overhead (kQuery) and
// summary-maintenance overhead (kMaintenance). Nodes can be marked down
// for failure injection; messages to or from a down node vanish, as do
// randomly dropped messages when a loss rate is configured.
//
// Fault injection beyond a uniform loss rate comes from a FaultPlan
// (see sim/fault.h): per-node and per-link loss, duplication, bounded
// reordering jitter, scheduled partitions and crash/restart windows.
// Messages killed at send time (loss coin, partition, dead sender) are
// metered as drops and charged to NO channel — the sender never put
// them on the wire as far as the overhead metrics are concerned —
// while messages whose receiver dies in flight were genuinely sent and
// keep their channel charge. Every send/drop/deliver decision folds
// into a running FNV-1a event digest, so two runs of the same seeded
// schedule can be compared bit-for-bit.
//
// Metering is backed by the shared obs::MetricsRegistry: each channel
// owns a pair of "net.<channel>.messages"/".bytes" counters, so every
// consumer of the registry (exporters, experiment snapshots) sees the
// same numbers meter() reports. The caller may supply the registry
// (Federation shares one across subsystems) or let the network own a
// private one. An optional obs::TraceBuffer receives structured
// send/deliver/drop events.
//
// Causal tracing: the current obs::TraceContext rides the event engine
// (Simulator::set_tracing, on while a trace buffer is attached). Every
// traced message allocates a transit span as a child of the current
// context (or roots a fresh tree when none is active) and its delivery
// is scheduled under that transit span, so sends made inside a handler
// chain into the same tree across any number of hops. Timers a handler
// arms inherit its context the same way. Deferred work that deserves
// its own span (query processing, retrieval service) goes through
// defer(), which opens the span, runs the work under it if the node is
// still up, and closes it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/delay_space.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/unique_function.h"

namespace roads::sim {

class ShardedSimulator;

enum class Channel : std::uint8_t {
  kControl = 0,      // join / topology negotiation
  kUpdate = 1,       // record exports, summary aggregation & replication
  kQuery = 2,        // query forwarding and redirects
  kMaintenance = 3,  // heartbeats, departure notices
  kResult = 4,       // record payloads returned to clients
};
constexpr std::size_t kChannelCount = 5;

const char* to_string(Channel channel);

/// Delivery callback. Move-only: the network moves it hop to hop
/// (send -> transit -> delivery event) without ever copying the
/// captured state. Inline capacity 64 covers the protocol layers'
/// reply closures (shared_ptr client + target vector + counters);
/// larger captures spill to the util::spill pool. A message duplicated
/// by a FaultPlan invokes the SAME closure twice (the state is owned
/// once) — handlers must tolerate re-invocation, which duplication
/// already demands of them.
using DeliverFn = util::UniqueFunction<void(), 64>;

/// Snapshot of one channel's traffic counters.
struct ChannelMeter {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class Network {
 public:
  /// Called when a fault-plan crash window flips a node down (up=false)
  /// or back up (up=true); lets the protocol layer fail/restart the
  /// corresponding server object.
  using NodeTransitionHandler = util::UniqueFunction<void(NodeId, bool up)>;

  /// `metrics` is the registry the channel counters live in; nullptr
  /// makes the network own a private registry. `trace` enables
  /// per-message structured events (nullptr = no tracing).
  Network(Simulator& simulator, DelaySpace& delay_space, util::Rng rng,
          obs::MetricsRegistry* metrics = nullptr,
          obs::TraceBuffer* trace = nullptr);

  /// The engine of the current execution context: the attached sharded
  /// coordinator's current engine when sharding is on (so handlers'
  /// now()/schedule_after land on their own shard), else the wrapped
  /// sequential Simulator.
  Simulator& simulator();
  const DelaySpace& delay_space() const { return space_; }

  /// Routes scheduling, clock reads, delivery placement and in-window
  /// digest folds through `sharded` (see sim/sharded_simulator.h).
  /// Tracing must be off: shard engines do not carry trace contexts and
  /// the span ring has no window-merge order. nullptr detaches.
  void attach_sharded(ShardedSimulator* sharded);

  /// The registry backing the channel meters (owned or shared);
  /// subsystems riding this network register their instruments here.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  obs::TraceBuffer* trace() { return trace_; }
  /// Attaches (or with nullptr detaches) the trace buffer and switches
  /// the engine's context carriage with it. Throws std::logic_error
  /// when a sharded coordinator is attached (the same contract
  /// attach_sharded enforces from the other side). Use handler
  /// profiling (obs/profile.h) under sharding.
  void set_trace(obs::TraceBuffer* trace);

  /// Opens an explicit span as a child of the current context (a fresh
  /// root when none is active), emits kSpanBegin and returns the
  /// context child spans and sends should run under. Inactive context
  /// returned when tracing is off. `label` is the span taxonomy name
  /// ("proc", "service", or a root-cause name like "summary_refresh").
  obs::TraceContext begin_span(NodeId node, const char* label);
  /// Closes a span opened by begin_span (no-op for inactive contexts).
  void end_span(const obs::TraceContext& ctx);

  /// Deferred work at `node` under its own span: opens span `label`
  /// now (child of the current context), runs `fn` after `delay` under
  /// that span only if `node` is still up, then closes the span. A
  /// server's liveness and its node_up flag flip together, so the
  /// check covers crashes, departures and fault-plan transitions.
  template <class Fn>
  void defer(NodeId node, Time delay, const char* label, Fn fn) {
    const obs::ScopedTraceContext scope(begin_span(node, label));
    simulator().schedule_after(
        delay, [this, node, fn = std::move(fn)]() mutable {
          if (node_up(node)) fn();
          // The event runs under the span it was scheduled with.
          end_span(obs::current_trace_context());
        });
  }

  /// One-way latency from a to b (delegates to the delay space).
  Time latency(NodeId a, NodeId b) const { return space_.latency(a, b); }

  /// Sends a message: accounts bytes on `channel` and schedules
  /// `deliver` at now + latency(from, to). Messages killed before the
  /// wire (dead sender, loss coin, partition) are metered as drops and
  /// never charged to the channel; a receiver that dies in flight drops
  /// the message with the bytes already spent.
  void send(NodeId from, NodeId to, std::uint64_t bytes, Channel channel,
            DeliverFn deliver);

  /// Accounts a batch of `messages` logical messages totalling `bytes`
  /// that travel together (e.g. a bulk record registration); delivered
  /// as one event. Loss applies to the whole batch.
  void send_bulk(NodeId from, NodeId to, std::uint64_t messages,
                 std::uint64_t bytes, Channel channel, DeliverFn deliver);

  bool node_up(NodeId node) const;
  void set_node_up(NodeId node, bool up);

  /// Probability in [0,1] that any message is silently lost. Alias for
  /// setting FaultPlan::loss_rate on the active plan.
  void set_loss_rate(double rate) { plan_.loss_rate = rate; }

  /// Installs `plan`: loss/dup/reorder rates take effect immediately,
  /// partition and crash windows are scheduled on the simulator (times
  /// already in the past fire at now). Replaces any previous plan —
  /// applying a default-constructed FaultPlan heals everything except
  /// nodes a previous plan crashed without a restart time. All
  /// randomness derives from the network RNG, so equal seeds replay the
  /// exact same fault sequence.
  void apply_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// True while an active partition window separates a and b.
  bool partitioned(NodeId a, NodeId b) const;

  /// Installs the crash/restart callback (see NodeTransitionHandler).
  void set_node_transition_handler(NodeTransitionHandler handler) {
    transition_ = std::move(handler);
  }

  ChannelMeter meter(Channel channel) const;
  std::uint64_t total_bytes() const;
  std::uint64_t total_messages() const;
  /// Messages that never reached their receiver (down nodes, loss,
  /// partitions).
  std::uint64_t dropped_messages() const { return dropped_->value(); }
  /// Zeroes the channel counters (experiment drivers meter deltas over
  /// one refresh window). The event digest is left untouched.
  void reset_meters();

  /// Running FNV-1a digest over every (time, from, to, bytes, channel,
  /// outcome) the network decided — equal seeds and schedules produce
  /// equal digests, which is the chaos tests' replay check.
  std::uint64_t event_digest() const { return digest_.value(); }

 private:
  enum class EventOutcome : std::uint64_t {
    kSend = 1,
    kDeliver = 2,
    kDropSend = 3,
    kDropDeliver = 4,
    kDuplicate = 5,
  };

  void trace_message(obs::TraceKind kind, NodeId from, NodeId to,
                     std::uint64_t bytes, Channel channel,
                     std::uint64_t span = 0, std::uint64_t trace = 0,
                     std::uint64_t parent = 0);
  void digest_event(EventOutcome outcome, NodeId from, NodeId to,
                    std::uint64_t bytes, Channel channel);
  /// Combined send-time loss probability for this (from, to) pair.
  double loss_probability(NodeId from, NodeId to) const;
  /// Allocates a transit span under the current context and emits the
  /// kSend event; returns the context the delivery should run under.
  obs::TraceContext trace_send(NodeId from, NodeId to, std::uint64_t bytes,
                               Channel channel);
  /// Schedules the delivery event under `transit`, the message's span.
  void schedule_delivery(NodeId from, NodeId to, std::uint64_t bytes,
                         Channel channel, Time delay,
                         const obs::TraceContext& transit, DeliverFn deliver);
  void set_partition_active(std::size_t index, bool active);
  /// Current-context engine (same as the public simulator()).
  Simulator& cur();

  Simulator& sim_;
  ShardedSimulator* sharded_ = nullptr;
  DelaySpace& space_;
  util::Rng rng_;
  FaultPlan plan_;
  std::vector<double> node_loss_;  // indexed by NodeId, 0 = none
  std::unordered_map<std::uint64_t, double> link_loss_;  // (from<<32)|to
  struct ActivePartition {
    std::vector<bool> member;  // indexed by NodeId
    bool active = false;
  };
  std::vector<ActivePartition> partitions_;
  std::uint64_t plan_generation_ = 0;  // invalidates scheduled windows
  NodeTransitionHandler transition_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::TraceBuffer* trace_;
  std::array<obs::Counter*, kChannelCount> message_counters_{};
  std::array<obs::Counter*, kChannelCount> byte_counters_{};
  obs::Counter* dropped_;
  obs::Counter* fault_dropped_;
  obs::Counter* fault_duplicated_;
  obs::Counter* fault_reordered_;
  obs::Counter* fault_partitioned_;
  util::Fnv1a digest_;
  std::vector<bool> down_;  // indexed by NodeId; default all up
};

/// RAII span: begins a span (child of the current context, or a fresh
/// root when none is active — e.g. a timer-driven refresh wave),
/// installs its context for the scope, and ends it on destruction. A
/// no-op when tracing is off.
class TraceSpan {
 public:
  TraceSpan(Network& net, NodeId node, const char* label)
      : net_(net), ctx_(net.begin_span(node, label)), scope_(ctx_) {}
  ~TraceSpan() { net_.end_span(ctx_); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  const obs::TraceContext& context() const { return ctx_; }

 private:
  Network& net_;
  obs::TraceContext ctx_;
  obs::ScopedTraceContext scope_;
};

}  // namespace roads::sim

#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

#include "obs/profile.h"
#include "sim/sharded_simulator.h"

namespace roads::sim {

namespace {
std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}

// Default profiling category per traffic channel: a send whose call
// site carries no explicit ScopedProfCategory tag is attributed by
// what the channel transports. Protocol sites that need finer splits
// (replica cascades vs parent pushes on kUpdate, results vs forwards)
// tag explicitly and win over this default.
obs::ProfCategory channel_category(Channel channel) {
  switch (channel) {
    case Channel::kControl:
      return obs::ProfCategory::kJoin;
    case Channel::kUpdate:
      return obs::ProfCategory::kSummaryPush;
    case Channel::kQuery:
      return obs::ProfCategory::kQueryForward;
    case Channel::kMaintenance:
      return obs::ProfCategory::kHeartbeat;
    case Channel::kResult:
      return obs::ProfCategory::kQueryResult;
  }
  return obs::ProfCategory::kOther;
}
}  // namespace

const char* to_string(Channel channel) {
  switch (channel) {
    case Channel::kControl:
      return "control";
    case Channel::kUpdate:
      return "update";
    case Channel::kQuery:
      return "query";
    case Channel::kMaintenance:
      return "maintenance";
    case Channel::kResult:
      return "result";
  }
  return "?";
}

Network::Network(Simulator& simulator, DelaySpace& delay_space, util::Rng rng,
                 obs::MetricsRegistry* metrics, obs::TraceBuffer* trace)
    : sim_(simulator), space_(delay_space), rng_(rng), trace_(trace) {
  sim_.set_tracing(trace_ != nullptr);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  for (std::size_t c = 0; c < kChannelCount; ++c) {
    const std::string base =
        std::string("net.") + to_string(static_cast<Channel>(c));
    message_counters_[c] = &metrics_->counter(base + ".messages");
    byte_counters_[c] = &metrics_->counter(base + ".bytes");
  }
  dropped_ = &metrics_->counter("net.dropped");
  fault_dropped_ = &metrics_->counter("sim.fault.dropped");
  fault_duplicated_ = &metrics_->counter("sim.fault.duplicated");
  fault_reordered_ = &metrics_->counter("sim.fault.reordered");
  fault_partitioned_ = &metrics_->counter("sim.fault.partitioned");
}

Simulator& Network::cur() {
  return sharded_ != nullptr ? sharded_->current_engine() : sim_;
}

Simulator& Network::simulator() { return cur(); }

void Network::attach_sharded(ShardedSimulator* sharded) {
  sharded_ = sharded;
  if (sharded_ != nullptr) {
    if (trace_ != nullptr) {
      throw std::logic_error(
          "Network: tracing is incompatible with sharding (threads > 1); "
          "disable the trace buffer or run single-threaded");
    }
    sharded_->set_digest_sink(&digest_);
    sharded_->set_coin_mode(plan_.any_message_faults());
  }
}

void Network::set_trace(obs::TraceBuffer* trace) {
  if (trace != nullptr && sharded_ != nullptr) {
    throw std::logic_error(
        "Network: tracing is incompatible with sharding (threads > 1); "
        "detach the sharded coordinator before enabling the trace buffer");
  }
  trace_ = trace;
  sim_.set_tracing(trace_ != nullptr);
}

bool Network::node_up(NodeId node) const {
  return node >= down_.size() || !down_[node];
}

void Network::set_node_up(NodeId node, bool up) {
  if (node >= down_.size()) down_.resize(node + 1, false);
  down_[node] = !up;
}

void Network::trace_message(obs::TraceKind kind, NodeId from, NodeId to,
                            std::uint64_t bytes, Channel channel,
                            std::uint64_t span, std::uint64_t trace,
                            std::uint64_t parent) {
  trace_->record({sim_.now(), kind, span, from, to, bytes, 0.0,
                  to_string(channel), trace, parent});
}

obs::TraceContext Network::begin_span(NodeId node, const char* label) {
  if (trace_ == nullptr) return {};
  const auto parent = obs::current_trace_context();
  const std::uint64_t id = trace_->next_span();
  const auto ctx = parent.child(id);
  trace_->record({sim_.now(), obs::TraceKind::kSpanBegin, id, node, node, 0,
                  0.0, label, ctx.trace, parent.span});
  return ctx;
}

void Network::end_span(const obs::TraceContext& ctx) {
  if (trace_ == nullptr || ctx.span == 0) return;
  trace_->record({sim_.now(), obs::TraceKind::kSpanEnd, ctx.span, 0, 0, 0,
                  0.0, "", ctx.trace, 0});
}

void Network::digest_event(EventOutcome outcome, NodeId from, NodeId to,
                           std::uint64_t bytes, Channel channel) {
  const std::array<std::uint64_t, 6> payload{
      static_cast<std::uint64_t>(cur().now()),
      static_cast<std::uint64_t>(outcome),
      static_cast<std::uint64_t>(from),
      static_cast<std::uint64_t>(to),
      bytes,
      static_cast<std::uint64_t>(channel)};
  if (sharded_ != nullptr && sharded_->in_window()) {
    // Mid-window folds buffer in the shard's log; the barrier merge
    // replays them into digest_ at the exact sequential position.
    sharded_->record_digest(payload);
    return;
  }
  for (const std::uint64_t w : payload) digest_.add(w);
}

double Network::loss_probability(NodeId from, NodeId to) const {
  double survive = 1.0 - std::clamp(plan_.loss_rate, 0.0, 1.0);
  if (from < node_loss_.size()) {
    survive *= 1.0 - std::clamp(node_loss_[from], 0.0, 1.0);
  }
  if (to < node_loss_.size()) {
    survive *= 1.0 - std::clamp(node_loss_[to], 0.0, 1.0);
  }
  if (!link_loss_.empty()) {
    auto it = link_loss_.find(link_key(from, to));
    if (it != link_loss_.end()) {
      survive *= 1.0 - std::clamp(it->second, 0.0, 1.0);
    }
  }
  return 1.0 - survive;
}

bool Network::partitioned(NodeId a, NodeId b) const {
  for (const auto& p : partitions_) {
    if (!p.active) continue;
    const bool a_in = a < p.member.size() && p.member[a];
    const bool b_in = b < p.member.size() && p.member[b];
    if (a_in != b_in) return true;
  }
  return false;
}

void Network::set_partition_active(std::size_t index, bool active) {
  if (index < partitions_.size()) partitions_[index].active = active;
}

void Network::apply_fault_plan(const FaultPlan& plan) {
  ++plan_generation_;  // orphan previously scheduled windows
  plan_ = plan;
  if (sharded_ != nullptr) {
    // Loss/dup/reorder coins draw from rng_ at send time in global
    // order — windows cannot reproduce that, so the coordinator
    // degrades to exact micro-stepping while such a plan is active.
    // Partition/crash windows alone keep full parallelism: they are
    // global-engine events and bound every window.
    sharded_->set_coin_mode(plan_.any_message_faults());
  }

  node_loss_.clear();
  for (const auto& nf : plan_.node_loss) {
    if (nf.node >= node_loss_.size()) node_loss_.resize(nf.node + 1, 0.0);
    node_loss_[nf.node] = nf.loss;
  }
  link_loss_.clear();
  for (const auto& lf : plan_.link_loss) {
    link_loss_[link_key(lf.from, lf.to)] = lf.loss;
  }

  partitions_.clear();
  partitions_.resize(plan_.partitions.size());
  const Time now = sim_.now();
  const std::uint64_t gen = plan_generation_;
  // Partition/crash window events are fault-plan machinery, not
  // protocol traffic — profile them under their own category.
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kFault);
  for (std::size_t i = 0; i < plan_.partitions.size(); ++i) {
    const auto& w = plan_.partitions[i];
    auto& ap = partitions_[i];
    for (NodeId n : w.group) {
      if (n >= ap.member.size()) ap.member.resize(n + 1, false);
      ap.member[n] = true;
    }
    sim_.schedule_at(std::max(now, w.start), [this, i, gen] {
      if (gen != plan_generation_) return;
      set_partition_active(i, true);
    });
    if (w.heal_at > w.start) {
      sim_.schedule_at(std::max(now, w.heal_at), [this, i, gen] {
        if (gen != plan_generation_) return;
        set_partition_active(i, false);
      });
    }
  }

  for (const auto& c : plan_.crashes) {
    const NodeId node = c.node;
    sim_.schedule_at(std::max(now, c.crash_at), [this, node, gen] {
      if (gen != plan_generation_) return;
      set_node_up(node, false);
      if (transition_) transition_(node, false);
    });
    if (c.restart_at > c.crash_at) {
      sim_.schedule_at(std::max(now, c.restart_at), [this, node, gen] {
        if (gen != plan_generation_) return;
        set_node_up(node, true);
        if (transition_) transition_(node, true);
      });
    }
  }
}

void Network::send(NodeId from, NodeId to, std::uint64_t bytes,
                   Channel channel, DeliverFn deliver) {
  send_bulk(from, to, 1, bytes, channel, std::move(deliver));
}

obs::TraceContext Network::trace_send(NodeId from, NodeId to,
                                      std::uint64_t bytes, Channel channel) {
  if (trace_ == nullptr) return {};
  const auto parent = obs::current_trace_context();
  const std::uint64_t span = trace_->next_span();
  const auto ctx = parent.child(span);
  trace_message(obs::TraceKind::kSend, from, to, bytes, channel, span,
                ctx.trace, parent.span);
  return ctx;
}

void Network::schedule_delivery(NodeId from, NodeId to, std::uint64_t bytes,
                                Channel channel, Time delay,
                                const obs::TraceContext& transit,
                                DeliverFn deliver) {
  EventFn event(
      [this, from, to, bytes, channel, fn = std::move(deliver)]() mutable {
        // The delivery runs under its transit span (the event's context),
        // so any send the handler makes becomes a child span of it.
        const auto delivery_ctx = obs::current_trace_context();
        // A receiver that died in flight (or got partitioned away while
        // the message was on the wire) drops the message; the sender
        // already spent the bytes, so the channel charge stands.
        if (!node_up(to)) {
          dropped_->inc();
          digest_event(EventOutcome::kDropDeliver, from, to, bytes, channel);
          if (trace_) {
            trace_message(obs::TraceKind::kDrop, from, to, bytes, channel,
                          delivery_ctx.span, delivery_ctx.trace);
          }
          return;
        }
        if (partitioned(from, to)) {
          dropped_->inc();
          fault_partitioned_->inc();
          digest_event(EventOutcome::kDropDeliver, from, to, bytes, channel);
          if (trace_) {
            trace_message(obs::TraceKind::kDrop, from, to, bytes, channel,
                          delivery_ctx.span, delivery_ctx.trace);
          }
          return;
        }
        digest_event(EventOutcome::kDeliver, from, to, bytes, channel);
        if (trace_) {
          trace_message(obs::TraceKind::kDeliver, from, to, bytes, channel,
                        delivery_ctx.span, delivery_ctx.trace);
        }
        fn();
      });
  // Channel default wins only when the send site set no explicit tag;
  // the slot byte is read by schedule_at/schedule_on_node below.
  obs::ScopedProfDefault prof_default(channel_category(channel));
  const obs::ScopedTraceContext trace_scope(transit);
  if (sharded_ != nullptr) {
    // Sharded mode: the delivery lands on the engine owning the
    // receiver (cross-shard sends ride the window log to the barrier).
    sharded_->schedule_on_node(to, cur().now() + delay, std::move(event));
  } else {
    sim_.schedule_after(delay, std::move(event));
  }
}

void Network::send_bulk(NodeId from, NodeId to, std::uint64_t messages,
                        std::uint64_t bytes, Channel channel,
                        DeliverFn deliver) {
  if (!node_up(from)) return;  // a dead sender emits nothing

  // Send-time kills are decided BEFORE the channel meters are charged:
  // a dropped message never went on the wire, so it must not inflate
  // the paper's overhead metrics. The RNG draw order below is fixed
  // (loss coin, then duplication coin, then jitter) and each coin is
  // drawn only when its rate is non-zero, so a given seed and plan
  // replay the exact same stream.
  if (partitioned(from, to)) {
    dropped_->inc(messages);
    fault_partitioned_->inc(messages);
    digest_event(EventOutcome::kDropSend, from, to, bytes, channel);
    if (trace_) trace_message(obs::TraceKind::kDrop, from, to, bytes, channel);
    return;
  }
  const double loss = loss_probability(from, to);
  if (loss > 0.0 && rng_.bernoulli(loss)) {
    dropped_->inc(messages);
    fault_dropped_->inc(messages);
    digest_event(EventOutcome::kDropSend, from, to, bytes, channel);
    if (trace_) trace_message(obs::TraceKind::kDrop, from, to, bytes, channel);
    return;
  }

  const auto c = static_cast<std::size_t>(channel);
  message_counters_[c]->inc(messages);
  byte_counters_[c]->inc(bytes);
  digest_event(EventOutcome::kSend, from, to, bytes, channel);
  const auto delivery_ctx = trace_send(from, to, bytes, channel);

  const bool duplicate =
      plan_.duplicate_rate > 0.0 && rng_.bernoulli(plan_.duplicate_rate);
  Time delay = space_.latency(from, to);
  if (plan_.reorder_rate > 0.0 && plan_.max_jitter > 0 &&
      rng_.bernoulli(plan_.reorder_rate)) {
    delay += rng_.uniform_int(1, plan_.max_jitter);
    fault_reordered_->inc(messages);
  }

  if (duplicate) {
    // The duplicate is a real extra transmission: it charges the
    // channel again, takes the undithered base latency (so it can
    // arrive before or after the jittered original) and owns its own
    // transit span — two wires, two spans under the same parent. The
    // move-only closure is parked in a shared block and both
    // deliveries invoke it (handlers already tolerate re-invocation
    // under duplication).
    message_counters_[c]->inc(messages);
    byte_counters_[c]->inc(bytes);
    fault_duplicated_->inc(messages);
    digest_event(EventOutcome::kDuplicate, from, to, bytes, channel);
    const auto dup_ctx = trace_send(from, to, bytes, channel);
    auto shared = std::make_shared<DeliverFn>(std::move(deliver));
    schedule_delivery(from, to, bytes, channel, space_.latency(from, to),
                      dup_ctx, [shared] { (*shared)(); });
    schedule_delivery(from, to, bytes, channel, delay, delivery_ctx,
                      [shared] { (*shared)(); });
    return;
  }
  schedule_delivery(from, to, bytes, channel, delay, delivery_ctx,
                    std::move(deliver));
}

ChannelMeter Network::meter(Channel channel) const {
  const auto c = static_cast<std::size_t>(channel);
  return {message_counters_[c]->value(), byte_counters_[c]->value()};
}

std::uint64_t Network::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto* c : byte_counters_) total += c->value();
  return total;
}

std::uint64_t Network::total_messages() const {
  std::uint64_t total = 0;
  for (const auto* c : message_counters_) total += c->value();
  return total;
}

void Network::reset_meters() {
  for (auto* c : message_counters_) c->reset();
  for (auto* c : byte_counters_) c->reset();
  dropped_->reset();
  fault_dropped_->reset();
  fault_duplicated_->reset();
  fault_reordered_->reset();
  fault_partitioned_->reset();
}

}  // namespace roads::sim

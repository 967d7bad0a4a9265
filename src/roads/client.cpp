#include "roads/client.h"

#include <algorithm>

#include "obs/profile.h"

namespace roads::core {

namespace {
/// How long to wait for a contacted server before writing it off as
/// failed; keeps queries from hanging on dead servers during churn.
constexpr sim::Time kReplyTimeout = 10 * sim::kSecond;

/// Inserts `id` into the ascending `ids`; false when it was already
/// there.
bool insert_sorted(std::vector<sim::NodeId>& ids, sim::NodeId id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) return false;
  ids.insert(it, id);
  return true;
}
}  // namespace

RoadsClient::RoadsClient(sim::Network& network, Directory& directory,
                         record::Query query, sim::NodeId location,
                         Principal principal, bool collect_results)
    : network_(network),
      directory_(directory),
      query_(std::move(query)),
      query_digest_(query_.digest()),
      location_(location),
      principal_(principal),
      collect_results_(collect_results) {}

void RoadsClient::trace_span(obs::TraceKind kind, sim::NodeId node,
                             double value) {
  auto* trace = network_.trace();
  if (!trace || span_ == 0) return;
  obs::TraceEvent ev;
  ev.at_us = network_.simulator().now();
  ev.kind = kind;
  ev.node = node;
  ev.peer = location_;
  ev.value = value;
  ev.trace = span_;  // the root span id names the query's causal tree
  // Lifecycle endpoints pin to the root span itself; per-hop markers
  // pin to the span they fired inside (the delivering transit span),
  // which is what the critical-path walk chains from.
  const auto ctx = obs::current_trace_context();
  const bool endpoint = kind == obs::TraceKind::kQueryStart ||
                        kind == obs::TraceKind::kQueryComplete;
  ev.span = (!endpoint && ctx.trace == span_ && ctx.span != 0) ? ctx.span
                                                               : span_;
  trace->record(ev);
}

void RoadsClient::start(sim::NodeId start_server) {
  started_ = true;
  start_server_ = start_server;
  result_.issued_at = network_.simulator().now();
  result_.last_arrival = result_.issued_at;
  result_.last_result_at = result_.issued_at;
  if (auto* trace = network_.trace()) {
    span_ = trace->next_span();
    trace_span(obs::TraceKind::kQueryStart, start_server);
  }
  // The initial visit runs under the query's root span so the first
  // query message (and everything downstream of it) chains into the
  // tree rooted at span_.
  const obs::ScopedTraceContext scope(obs::TraceContext{span_, span_});
  visit(start_server, QueryMode::kStart);
}

void RoadsClient::visit(sim::NodeId target, QueryMode mode) {
  if (!insert_sorted(visited_, target)) return;  // already contacted
  ++outstanding_replies_;
  // Covers the deadline event too: start() issues the first visit
  // outside any handler, where there is no category to inherit.
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kQueryForward);
  auto self = shared_from_this();
  network_.send(location_, target, msg::query(query_), sim::Channel::kQuery,
                [this, self, target, mode] {
                  directory_.query_target(target).handle_query(self, mode);
                });
  add_deadline(target, false);
}

void RoadsClient::add_deadline(sim::NodeId server, bool batch) {
  deadlines_.push_back(
      {network_.simulator().now() + kReplyTimeout, server, batch});
  // Every earlier deadline is handled, so no deadline event is pending.
  if (next_deadline_ + 1 == deadlines_.size()) arm_deadline();
}

void RoadsClient::arm_deadline() {
  network_.simulator().schedule_at(
      deadlines_[next_deadline_].at, [client = weak_from_this()] {
        if (const auto self = client.lock()) self->on_deadline();
      });
}

void RoadsClient::on_deadline() {
  const auto now = network_.simulator().now();
  while (!result_.complete && next_deadline_ < deadlines_.size() &&
         deadlines_[next_deadline_].at <= now) {
    const Deadline deadline = deadlines_[next_deadline_++];
    const auto server = deadline.server;
    if (deadline.batch) {
      // The batch never came (its server failed before sending it).
      if (insert_sorted(results_arrived_, server)) check_complete();
      continue;
    }
    if (!insert_sorted(replied_, server)) continue;  // it answered in time
    // The server never answered (failed or unreachable); stop waiting.
    if (outstanding_replies_ > 0) --outstanding_replies_;
    check_complete();
  }
  if (!result_.complete && next_deadline_ < deadlines_.size()) arm_deadline();
}

void RoadsClient::on_overload(sim::NodeId server) {
  if (result_.complete || !insert_sorted(replied_, server)) return;
  ++result_.sheds;
  if (server == start_server_) result_.rejected = true;
  if (outstanding_replies_ > 0) --outstanding_replies_;
  check_complete();
}

void RoadsClient::on_arrival(sim::NodeId server) {
  result_.last_arrival =
      std::max(result_.last_arrival, network_.simulator().now());
  ++result_.servers_contacted;
  trace_span(obs::TraceKind::kQueryHop, server,
             sim::to_ms(network_.simulator().now() - result_.issued_at));
}

void RoadsClient::on_reply(
    sim::NodeId server,
    const std::vector<std::pair<sim::NodeId, QueryMode>>& targets,
    std::size_t local_matches, bool results_pending) {
  if (!insert_sorted(replied_, server)) return;  // duplicate or timed out
  if (outstanding_replies_ == 0) return;         // stale reply after completion
  --outstanding_replies_;
  result_.matching_records += local_matches;
  if (results_pending) {
    insert_sorted(results_expected_, server);
    add_deadline(server, true);
  }
  if (!targets.empty()) {
    trace_span(obs::TraceKind::kQueryRedirect, server,
               static_cast<double>(targets.size()));
  }
  for (const auto& [node, mode] : targets) visit(node, mode);
  check_complete();
}

void RoadsClient::on_results(
    sim::NodeId server, const std::vector<record::ResourceRecord>& records) {
  if (!insert_sorted(results_arrived_, server)) return;  // duplicate batch
  result_.last_result_at =
      std::max(result_.last_result_at, network_.simulator().now());
  trace_span(obs::TraceKind::kQueryResult, server,
             static_cast<double>(records.size()));
  result_.records.insert(result_.records.end(), records.begin(),
                         records.end());
  check_complete();
}

void RoadsClient::check_complete() {
  if (!started_ || result_.complete) return;
  if (outstanding_replies_ > 0) return;
  if (collect_results_) {
    if (!std::includes(results_arrived_.begin(), results_arrived_.end(),
                       results_expected_.begin(), results_expected_.end())) {
      return;
    }
  }
  result_.complete = true;
  trace_span(obs::TraceKind::kQueryComplete, location_,
             static_cast<double>(result_.matching_records));
}

}  // namespace roads::core

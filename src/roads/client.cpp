#include "roads/client.h"

#include <algorithm>

#include "obs/profile.h"

namespace roads::core {

namespace {
/// How long to wait for a contacted server before writing it off as
/// failed; keeps queries from hanging on dead servers during churn.
constexpr sim::Time kReplyTimeout = 10 * sim::kSecond;
}  // namespace

RoadsClient::RoadsClient(sim::Network& network, Directory& directory,
                         record::Query query, sim::NodeId location,
                         Principal principal, bool collect_results)
    : network_(network),
      directory_(directory),
      query_(std::move(query)),
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
  trace->record(std::move(ev));
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
  if (!visited_.insert(target).second) return;  // already contacted
  ++outstanding_replies_;
  // Covers the reply-timeout timer too: start() issues the first visit
  // outside any handler, where there is no category to inherit.
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kQueryForward);
  auto self = shared_from_this();
  network_.send(location_, target, msg::query(query_), sim::Channel::kQuery,
                [this, self, target, mode] {
                  directory_.query_target(target).handle_query(self, mode);
                });
  network_.simulator().schedule_after(
      kReplyTimeout, [self, target] { self->on_reply_timeout(target); });
}

void RoadsClient::on_reply_timeout(sim::NodeId server) {
  if (result_.complete || replied_.count(server)) return;
  // The server never answered (failed or unreachable); stop waiting.
  replied_.insert(server);
  if (outstanding_replies_ > 0) --outstanding_replies_;
  check_complete();
}

void RoadsClient::on_overload(sim::NodeId server) {
  if (result_.complete || replied_.count(server)) return;
  replied_.insert(server);
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
  if (!replied_.insert(server).second) return;  // duplicate or timed out
  if (outstanding_replies_ == 0) return;        // stale reply after completion
  --outstanding_replies_;
  result_.matching_records += local_matches;
  if (results_pending) results_expected_.insert(server);
  if (!targets.empty()) {
    trace_span(obs::TraceKind::kQueryRedirect, server,
               static_cast<double>(targets.size()));
  }
  for (const auto& [node, mode] : targets) visit(node, mode);
  check_complete();
}

void RoadsClient::on_results(
    sim::NodeId server, const std::vector<record::ResourceRecord>& records) {
  if (!results_arrived_.insert(server).second) return;  // duplicate batch
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

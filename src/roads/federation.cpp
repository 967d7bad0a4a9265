#include "roads/federation.h"

#include <stdexcept>

#include "store/service_model.h"

namespace roads::core {

/// Stands in for a resource owner on its own machine: receives query
/// messages, applies the owner's sharing policy, replies (and ships
/// records in result-collection mode).
class Federation::OwnerAgent : public QueryTarget {
 public:
  OwnerAgent(Federation& federation, std::shared_ptr<ResourceOwner> owner)
      : federation_(federation), owner_(std::move(owner)) {}

  const std::shared_ptr<ResourceOwner>& owner() const { return owner_; }

  void handle_query(std::shared_ptr<RoadsClient> client,
                    QueryMode /*mode*/) override {
    const auto node = owner_->node();
    client->on_arrival(node);
    auto& network = federation_.network_;
    // Same span discipline as RoadsServer::handle_query: processing
    // opens at arrival, retrieval is its own service span.
    network.defer(
        node, federation_.config_.query_processing_delay, "proc",
        [this, client, node, &network] {
          auto records = owner_->answer(client->principal(), client->query());
          const std::size_t matches = records.size();
          const bool results_pending = client->collect_results() && matches > 0;
          network.send(node, client->location(), msg::redirect_reply(0),
                       sim::Channel::kQuery,
                       [client, node, matches, results_pending] {
                         client->on_reply(node, {}, matches, results_pending);
                       });
          if (!results_pending) return;
          std::uint64_t bytes = 0;
          for (const auto& r : records) bytes += r.wire_size();
          store::QueryStats stats;
          stats.candidates_scanned = owner_->store().size();
          stats.matches = matches;
          const auto service = store::service_time_us(
              federation_.config_.service_model, stats, bytes);
          network.defer(
              node, service, "service",
              [client, node, bytes, records = std::move(records),
               &network]() mutable {
                network.send(node, client->location(), msg::results(bytes),
                             sim::Channel::kResult,
                             [client, node, records = std::move(records)] {
                               client->on_results(node, records);
                             });
              });
        });
  }

 private:
  Federation& federation_;
  std::shared_ptr<ResourceOwner> owner_;
};

Federation::Federation(FederationParams params)
    : config_(params.config),
      schema_(std::move(params.schema)),
      rng_(params.seed),
      // Sharded mode forces tracing off: shard engines do not carry
      // trace contexts across the window merge.
      trace_(params.trace_capacity > 0 && params.threads <= 1
                 ? std::make_unique<obs::TraceBuffer>(params.trace_capacity)
                 : nullptr),
      simulator_(),
      delay_space_(0, rng_.fork(0x5e1f), params.delay),
      network_(simulator_, delay_space_, rng_.fork(0x2e70), &metrics_,
               trace_.get()) {
  if (trace_) trace_->bind_metrics(metrics_);
  if (params.threads > 1) {
    sharded_ =
        std::make_unique<sim::ShardedSimulator>(simulator_, params.threads);
    sharded_->set_lookahead(delay_space_.min_latency());
    sharded_->set_tree_branching(config_.max_children);
    sharded_->bind_metrics(metrics_);
    network_.attach_sharded(sharded_.get());
  }
  if (params.profile) {
    profiler_ = std::make_unique<obs::Profiler>();
    if (sharded_) {
      sharded_->attach_profiler(profiler_.get());
    } else {
      simulator_.set_profile_sink(&profiler_->sink(0));
    }
  }
}

Federation::~Federation() = default;

RoadsServer& Federation::add_server() {
  const sim::NodeId id = delay_space_.add_node();
  auto server = std::make_unique<RoadsServer>(
      id, config_, network_, *this, schema_, rng_.fork(0x9000 + id));
  RoadsServer& ref = *server;
  servers_.push_back(std::move(server));
  targets_.push_back(&ref);

  if (!root_) {
    root_ = id;
    ref.become_root();
    return ref;
  }

  bool done = false;
  bool ok = false;
  ref.start_join(*root_, [&](bool success) {
    done = true;
    ok = success;
  });
  // The join protocol is the only traffic before start(); drain it
  // fully (including the post-accept branch-stats updates) so the next
  // joiner sees settled statistics — matching the paper's incremental
  // formation where joins are far slower than stats propagation.
  std::size_t guard = 0;
  while (drive_steps(1) > 0) {
    if (++guard > 1'000'000) {
      throw std::runtime_error("Federation: join protocol did not settle");
    }
  }
  if (!done || !ok) {
    throw std::runtime_error("Federation: server failed to join");
  }
  return ref;
}

void Federation::add_servers(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) add_server();
}

std::shared_ptr<ResourceOwner> Federation::add_owner(sim::NodeId attach_to,
                                                     ExportMode mode,
                                                     bool colocated) {
  if (attach_to >= servers_.size()) {
    throw std::out_of_range("Federation: unknown attachment server");
  }
  sim::NodeId owner_node = attach_to;
  if (!colocated) owner_node = delay_space_.add_node();
  if (sharded_ && owner_node != attach_to) {
    // A remote owner rides its attachment server's shard: their
    // query/reply chatter is the owner's only traffic.
    sharded_->pin_node(owner_node, sharded_->shard_of(attach_to));
  }
  auto owner = std::make_shared<ResourceOwner>(next_owner_id_++, owner_node,
                                               schema_);
  if (!colocated) {
    auto agent = std::make_unique<OwnerAgent>(*this, owner);
    if (owner_node != targets_.size()) {
      throw std::logic_error("Federation: node id bookkeeping out of sync");
    }
    targets_.push_back(agent.get());
    owner_agents_.push_back(std::move(agent));
  }
  (void)mode;  // the caller passes the mode again to attach_owner
  return owner;
}

void Federation::start() {
  if (started_) return;
  started_ = true;
  for (auto& s : servers_) {
    // Pin each server's initial timers onto its own shard; the ticks
    // re-arm through network().simulator() and stay there.
    sim::ScopedNodePin pin(sharded_.get(), s->id());
    s->start_timers();
  }
}

void Federation::stabilize(std::size_t rounds) {
  start();
  if (rounds == 0) rounds = topology().height() + 2;
  const sim::Time horizon =
      simulator_.now() +
      static_cast<sim::Time>(rounds) * config_.summary_refresh_period +
      sim::seconds(5);
  drive_until(horizon);
}

void Federation::advance(sim::Time duration) {
  drive_until(simulator_.now() + duration);
}

std::size_t Federation::drive_steps(std::size_t limit) {
  return sharded_ ? sharded_->run_steps(limit) : simulator_.run_steps(limit);
}

void Federation::drive_until(sim::Time deadline) {
  if (sharded_) {
    sharded_->run_until(deadline);
  } else {
    simulator_.run_until(deadline);
  }
}

sim::Simulator::Stats Federation::engine_stats() const {
  return sharded_ ? sharded_->stats() : simulator_.stats();
}

std::size_t Federation::take_window_max_depth() {
  return sharded_ ? sharded_->take_window_max_depth()
                  : simulator_.take_window_max_depth();
}

void Federation::set_refresh_paused(bool paused) {
  for (auto& s : servers_) s->set_refresh_paused(paused);
}

void Federation::apply_fault_plan(const sim::FaultPlan& plan) {
  network_.set_node_transition_handler([this](sim::NodeId node, bool up) {
    if (node >= servers_.size()) return;  // owner node: link-level only
    // Transitions execute on the global engine; pin so the restart's
    // fresh timers and join messages land on the node's own shard.
    sim::ScopedNodePin pin(sharded_.get(), node);
    RoadsServer& s = *servers_[node];
    if (!up) {
      if (s.alive()) s.fail();
      return;
    }
    if (s.alive()) return;
    // Rejoin by descending from the lowest-id alive peer — the most
    // likely root, and a deterministic choice either way.
    sim::NodeId seed = node;
    for (const auto& peer : servers_) {
      if (peer->id() != node && peer->alive()) {
        seed = peer->id();
        break;
      }
    }
    s.restart(seed);
  });
  network_.apply_fault_plan(plan);
}

QueryOutcome Federation::run_query(const record::Query& query,
                                   sim::NodeId start_server,
                                   Principal principal) {
  return run_query_scoped(query, start_server, RoadsClient::kUnlimitedScope,
                          principal);
}

QueryOutcome Federation::run_query_scoped(const record::Query& query,
                                          sim::NodeId start_server,
                                          unsigned scope_levels,
                                          Principal principal) {
  const auto query_bytes_before =
      network_.meter(sim::Channel::kQuery).bytes;
  const auto result_bytes_before =
      network_.meter(sim::Channel::kResult).bytes;

  auto client = std::make_shared<RoadsClient>(network_, *this, query,
                                              start_server, principal,
                                              config_.collect_results);
  client->set_scope(scope_levels);
  // start() allocates the query's root span, so every event of its
  // trace is recorded at or after this position.
  const std::uint64_t trace_mark = trace_ ? trace_->recorded() : 0;
  client->start(start_server);
  std::size_t guard = 0;
  while (!client->done() && drive_steps(1) > 0) {
    if (++guard > 50'000'000) {
      throw std::runtime_error("Federation: query did not complete");
    }
  }

  const auto& r = client->result();
  QueryOutcome out;
  out.complete = r.complete;
  out.latency_ms = sim::to_ms(r.forwarding_latency());
  out.response_ms = sim::to_ms(r.response_time());
  out.query_bytes =
      network_.meter(sim::Channel::kQuery).bytes - query_bytes_before;
  out.result_bytes =
      network_.meter(sim::Channel::kResult).bytes - result_bytes_before;
  out.servers_contacted = r.servers_contacted;
  out.matching_records = r.matching_records;
  out.contacted.assign(client->visited().begin(), client->visited().end());
  out.records = r.records;
  out.sheds = r.sheds;
  out.rejected = r.rejected;

  // Load accounting for the telemetry probes: which servers this query
  // touched, plus the completed-count/latency instruments the Timeline
  // turns into per-window query rates and windowed quantiles.
  note_query_complete(*client);

  // Critical-path attribution (tracing on): rebuild this query's span
  // tree from its own buffered events (each carries the query's root
  // id, and all were recorded after trace_mark) and split the measured
  // latency into network / processing / queueing / false-positive-detour
  // phases.
  out.trace_id = client->span();
  if (trace_ && out.trace_id != 0) {
    const auto tree = obs::SpanTree::build(
        trace_->trace_events(out.trace_id, trace_mark));
    auto fwd = obs::query_critical_path(tree, out.trace_id,
                                        obs::QueryEndpoint::kForwarding);
    if (fwd.complete) {
      metrics_.histogram("roads.query.critpath.network_ms")
          .record(fwd.network_us / 1000.0);
      metrics_.histogram("roads.query.critpath.processing_ms")
          .record(fwd.processing_us / 1000.0);
      metrics_.histogram("roads.query.critpath.queueing_ms")
          .record(fwd.queueing_us / 1000.0);
      metrics_.histogram("roads.query.critpath.detour_ms")
          .record(fwd.detour_us / 1000.0);
    } else {
      // Chain broken: history evicted from the bounded buffer (or the
      // query never left the start server).
      metrics_.counter("roads.query.critpath.incomplete").inc();
    }
    out.forwarding_path = fwd;
    if (config_.collect_results) {
      auto resp = obs::query_critical_path(tree, out.trace_id,
                                           obs::QueryEndpoint::kResponse);
      if (resp.complete || resp.terminal_span != 0) {
        out.response_path = resp;
      }
    }
  }
  return out;
}

std::shared_ptr<RoadsClient> Federation::issue_query(const record::Query& query,
                                                     sim::NodeId start_server,
                                                     Principal principal) {
  auto client = std::make_shared<RoadsClient>(network_, *this, query,
                                              start_server, principal,
                                              config_.collect_results);
  client->start(start_server);
  return client;
}

void Federation::note_query_complete(const RoadsClient& client) {
  if (query_visits_.size() < servers_.size()) {
    query_visits_.resize(servers_.size(), 0);
  }
  for (const auto node : client.visited()) {
    if (node < query_visits_.size()) ++query_visits_[node];
  }
  const auto& r = client.result();
  if (r.complete) {
    metrics_.counter("roads.query.completed").inc();
    metrics_.histogram("roads.query.latency_ms")
        .record(sim::to_ms(r.forwarding_latency()));
  }
}

std::vector<RoadsServer*> Federation::servers() {
  std::vector<RoadsServer*> out;
  out.reserve(servers_.size());
  for (auto& s : servers_) out.push_back(s.get());
  return out;
}

hierarchy::Topology Federation::topology() const {
  std::vector<sim::NodeId> parents(servers_.size(),
                                   hierarchy::Topology::kNoParent);
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (!servers_[i]->alive()) {
      parents[i] = hierarchy::Topology::kAbsent;
      continue;
    }
    if (auto p = servers_[i]->parent()) parents[i] = *p;
  }
  return hierarchy::Topology(std::move(parents));
}

RoadsServer& Federation::server(sim::NodeId id) {
  if (id >= servers_.size()) {
    throw std::out_of_range("Federation: unknown server id");
  }
  return *servers_[id];
}

QueryTarget& Federation::query_target(sim::NodeId id) {
  if (id >= targets_.size()) {
    throw std::out_of_range("Federation: unknown query target");
  }
  return *targets_[id];
}

}  // namespace roads::core

#include "roads/server.h"

#include <algorithm>

#include "obs/profile.h"
#include "util/hash.h"
#include "util/log.h"

namespace roads::core {

namespace {
/// Join requests to a dead server never get a reply; after this long
/// the joiner assumes the target failed and moves on.
constexpr sim::Time kJoinTimeout = sim::seconds(2);

/// Result-cache bounds: entries and total cached bytes (records +
/// target lists), LRU-evicted.
constexpr std::size_t kQueryCacheMaxEntries = 4096;
constexpr std::uint64_t kQueryCacheMaxBytes = 1 << 22;  // 4 MiB

/// Service time of a cache hit (lookup + reply assembly). A hit
/// occupies an evaluation slot for this long instead of
/// query_processing_delay — the source of the cache's throughput win.
constexpr sim::Time kQueryCacheHitDelay = 50;  // µs
}  // namespace

RoadsServer::RoadsServer(sim::NodeId id, const RoadsConfig& config,
                         sim::Network& network, Directory& directory,
                         record::Schema schema, util::Rng rng)
    : id_(id),
      config_(config),
      network_(network),
      directory_(directory),
      schema_(std::move(schema)),
      rng_(rng),
      join_policy_(config.join_policy, config.max_children),
      query_hops_(network.metrics().counter("roads.query.hops")),
      query_false_positives_(
          network.metrics().counter("roads.query.false_positives")),
      summary_merges_(network.metrics().counter("roads.summary.merges")),
      overlay_shortcut_hits_(
          network.metrics().counter("roads.overlay.shortcut_hits")),
      joins_(network.metrics().counter("roads.server.joins")),
      rejoins_(network.metrics().counter("roads.server.rejoins")),
      heartbeat_misses_(
          network.metrics().counter("roads.server.heartbeat_misses")),
      summary_refresh_skipped_(
          network.metrics().counter("roads.summary.refresh_skipped")),
      summary_push_suppressed_(
          network.metrics().counter("roads.summary.push_suppressed")),
      summary_full_rebuilds_(
          network.metrics().counter("roads.summary.full_rebuilds")),
      refresh_us_(network.metrics().histogram("roads.summary.refresh_us")),
      cache_hits_(network.metrics().counter("roads.query.cache.hit")),
      cache_misses_(network.metrics().counter("roads.query.cache.miss")),
      cache_invalidates_(
          network.metrics().counter("roads.query.cache.invalidate")),
      cache_neg_hits_(network.metrics().counter("roads.query.cache.neg_hit")),
      cache_sheds_(network.metrics().counter("roads.query.cache.shed")),
      cache_evicted_(network.metrics().counter("roads.query.cache.evicted")),
      store_(schema_),
      replicas_(config.summary_ttl),
      query_cache_(kQueryCacheMaxEntries, kQueryCacheMaxBytes) {
  replicas_.bind_metrics(network.metrics());
}

void RoadsServer::trace_event(obs::TraceKind kind, sim::NodeId peer,
                              double value, std::uint64_t span) const {
  auto* trace = network_.trace();
  if (!trace) return;
  obs::TraceEvent ev;
  ev.at_us = network_.simulator().now();
  ev.kind = kind;
  ev.span = span;
  ev.node = id_;
  ev.peer = peer;
  ev.value = value;
  // Point events inherit the causal tree of whatever handler emits
  // them, so e.g. a heartbeat-miss shows up inside the failure-check
  // wave that detected it.
  ev.trace = obs::current_trace_context().trace;
  trace->record(ev);
}

// --------------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------------

void RoadsServer::become_root() {
  parent_.reset();
  root_path_ = hierarchy::RootPath({id_});
}

void RoadsServer::start_timers() {
  if (timers_started_) return;
  timers_started_ = true;
  // Stagger the first refresh so all servers do not fire in lockstep;
  // the offset is deterministic per seed.
  const auto first_refresh = static_cast<sim::Time>(
      rng_.uniform(0.0, static_cast<double>(sim::seconds(1))));
  {
    // Tick bodies profile as refresh-timer work; their re-arms inherit
    // the category from the executing handler automatically.
    obs::ScopedProfCategory prof_tag(obs::ProfCategory::kTimerRefresh);
    start_periodic(first_refresh, &RoadsConfig::summary_refresh_period,
                   &RoadsServer::on_refresh_timer);
  }

  if (!config_.maintenance_enabled) return;

  // Failure detection starts now: reset the heartbeat clocks so peers
  // that joined long before the timers started are not instantly
  // declared dead.
  const auto now = network_.simulator().now();
  last_parent_heartbeat_ = now;
  children_.touch_all(now);

  const auto first_hb = static_cast<sim::Time>(
      rng_.uniform(0.0, static_cast<double>(config_.heartbeat_period)));
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kTimerMaintenance);
  start_periodic(first_hb, &RoadsConfig::heartbeat_period,
                 &RoadsServer::on_heartbeat_timer);
  // Offset the sweep by half a period so checks interleave heartbeats.
  start_periodic(first_hb + config_.heartbeat_period / 2,
                 &RoadsConfig::heartbeat_period,
                 &RoadsServer::on_failure_check_timer);
}

void RoadsServer::start_periodic(sim::Time first,
                                 sim::Time RoadsConfig::*period,
                                 void (RoadsServer::*tick)()) {
  // Each tick re-arms itself unless the server stopped or restarted
  // since (pre-crash chains must not resume beside the new ones). The
  // body lives once in a shared UniqueFunction; every arm schedules a
  // 16-byte [self] trampoline, so re-arming never copies the closure
  // state. The body holds itself only weakly — the pending trampoline
  // owns the one strong reference, so a drained or destroyed simulator
  // releases the chain instead of leaking a shared_ptr cycle.
  auto chain = std::make_shared<util::UniqueFunction<void()>>();
  *chain = [this, epoch = life_epoch_, period, tick,
            weak = std::weak_ptr(chain)] {
    if (!alive_ || life_epoch_ != epoch) return;
    (this->*tick)();
    if (auto self = weak.lock()) {
      network_.simulator().schedule_after(config_.*period,
                                          [self] { (*self)(); });
    }
  };
  network_.simulator().schedule_after(
      first, [chain = std::move(chain)] { (*chain)(); });
}

void RoadsServer::on_refresh_timer() {
  if (!refresh_paused_) refresh_summaries();
}

void RoadsServer::leave() {
  if (!alive_) return;
  sim::TraceSpan trace_root(network_, id_, "leave");
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kMaintenance);
  if (parent_) {
    send_to_server(*parent_, msg::leave_notice(), sim::Channel::kMaintenance,
                   [child = id_](RoadsServer& p) {
                     p.handle_leave_from_child(child);
                   });
  }
  for (const auto child : children_.ids()) {
    send_to_server(child, msg::leave_notice(), sim::Channel::kMaintenance,
                   [self = id_](RoadsServer& c) {
                     c.handle_leave_from_parent(self);
                   });
  }
  trace_event(obs::TraceKind::kLeave, parent_.value_or(id_));
  fail();
}

void RoadsServer::fail() {
  alive_ = false;
  ++life_epoch_;
  network_.set_node_up(id_, false);
  // Queued queries die with the server; their clients time out.
  query_queue_.clear();
  active_queries_ = 0;
}

void RoadsServer::restart(sim::NodeId seed) {
  if (alive_) return;
  // Soft state died with the process; records and attachments are the
  // durable part (the paper's soft-state summaries regenerate).
  parent_.reset();
  root_path_ = hierarchy::RootPath({id_});
  children_.clear();
  pushed_digests_.clear();
  parent_push_digest_.reset();
  last_pushed_stats_ = hierarchy::BranchStats{};
  branch_summary_.reset();
  replicas_.clear();
  root_children_.clear();
  recovery_candidates_.clear();
  join_ = JoinState{};
  refresh_round_ = 0;
  query_cache_.clear();

  alive_ = true;
  ++life_epoch_;
  network_.set_node_up(id_, true);
  last_parent_heartbeat_ = network_.simulator().now();
  timers_started_ = false;
  start_timers();

  if (seed == id_) {
    become_root();
    return;
  }
  trace_event(obs::TraceKind::kRejoin, seed);
  rejoins_.inc();
  // A restart while the seed is unreachable (crashed, or across an
  // active partition) must not strand us as a permanent lonely root:
  // keep the seed as a recovery contact so the maintenance timer keeps
  // retrying until the overlay re-merges.
  recovery_candidates_.push_back(seed);
  start_join(seed, [this](bool ok) {
    if (!ok) become_root();  // recovery_candidates_ keeps us retrying
  });
}

// --------------------------------------------------------------------------
// Resource attachment
// --------------------------------------------------------------------------

void RoadsServer::attach_owner(std::shared_ptr<ResourceOwner> owner,
                               ExportMode mode) {
  Attachment att;
  att.owner = std::move(owner);
  att.mode = mode;
  export_owner(att);
  attachments_.push_back(std::move(att));
}

void RoadsServer::reexport_owner(record::OwnerId owner_id) {
  for (auto& att : attachments_) {
    if (att.owner->id() != owner_id) continue;
    // Replace this owner's records wholesale (soft-state refresh).
    if (att.mode == ExportMode::kDetailedRecords) store_.erase_owner(owner_id);
    export_owner(att);
    return;
  }
}

void RoadsServer::export_owner(Attachment& att) {
  const ResourceOwner& owner = *att.owner;
  std::uint64_t bytes = 0;
  if (att.mode == ExportMode::kDetailedRecords) {
    // The owner ships raw records.
    store_.insert_all(owner.store());
    bytes = owner.store().stored_bytes();
  } else {
    att.summary = std::make_shared<const summary::ResourceSummary>(
        owner.export_summary(config_.summary));
    bytes = msg::summary_update(*att.summary);
  }
  // Remote exports cost update traffic.
  if (owner.node() != id_) {
    network_.send(owner.node(), id_, bytes, sim::Channel::kUpdate, [] {});
  }
}

// --------------------------------------------------------------------------
// Summary protocol
// --------------------------------------------------------------------------

void RoadsServer::refresh_attachment_summaries(bool keepalive) {
  for (auto& att : attachments_) {
    if (att.mode != ExportMode::kSummaryOnly) continue;
    const auto version = att.owner->store().version();
    if (!keepalive && att.summary && version == att.exported_version) {
      // Owner data untouched since the last export: skip the recompute
      // and the wire round-trip entirely.
      summary_refresh_skipped_.inc();
      continue;
    }
    auto fresh = std::make_shared<const summary::ResourceSummary>(
        att.owner->export_summary(config_.summary));
    const auto digest = fresh->digest();
    const bool changed = !att.summary || digest != att.exported_digest;
    att.summary = std::move(fresh);
    att.exported_version = version;
    att.exported_digest = digest;
    if (att.owner->node() != id_) {
      if (keepalive || changed) {
        network_.send(att.owner->node(), id_,
                      msg::summary_update(*att.summary), sim::Channel::kUpdate,
                      [] {});
      } else {
        summary_push_suppressed_.inc();
      }
    }
  }
}

SummaryPtr RoadsServer::compute_local_summary() {
  const auto version = store_.version();
  if (store_summary_ && version == store_summary_version_) {
    summary_refresh_skipped_.inc();  // store untouched since the last build
  } else {
    store_summary_ = std::make_shared<const summary::ResourceSummary>(
        store_.summarize(config_.summary));
    store_summary_version_ = version;
    summary_full_rebuilds_.inc();
  }
  // The store summary is the local summary unless a summary-only
  // attachment merges in; only then build a new one, in one merge.
  std::vector<const summary::ResourceSummary*> parts = {store_summary_.get()};
  for (const auto& att : attachments_) {
    if (att.mode == ExportMode::kSummaryOnly && att.summary) {
      parts.push_back(att.summary.get());
    }
  }
  if (parts.size() == 1) return store_summary_;
  summary::ResourceSummary local;
  local.merge(parts);
  summary_merges_.inc(parts.size() - 1);
  return std::make_shared<const summary::ResourceSummary>(std::move(local));
}

SummaryPtr RoadsServer::compute_branch_summary() const {
  std::vector<const summary::ResourceSummary*> parts = {local_summary_.get()};
  for (const auto& [child, summary] : children_.summaries()) {
    if (summary) parts.push_back(summary.get());
  }
  // A branch no child summary merges into *is* the local summary
  // (always a leaf's case): share it rather than copy every slot.
  if (parts.size() == 1) return local_summary_;
  summary::ResourceSummary branch;
  branch.merge(parts);
  summary_merges_.inc(parts.size() - 1);
  return std::make_shared<const summary::ResourceSummary>(std::move(branch));
}

void RoadsServer::refresh_summaries() {
  if (!alive_) return;
  obs::ScopedTimer timer(refresh_us_);
  // Roots a causal tree: the parent push, sibling forwards and replica
  // cascade triggered by this wave all chain under one span.
  sim::TraceSpan trace_root(network_, id_, "summary_refresh");
  // Round r is a keepalive wave when r % K == 0 (the first round always
  // is), so every soft-state TTL downstream is renewed at least every
  // K periods. K == 0 makes every round a keepalive: suppression off.
  const auto k = config_.summary_keepalive_rounds;
  const bool keepalive = k == 0 || refresh_round_ % k == 0;
  ++refresh_round_;

  refresh_attachment_summaries(keepalive);
  local_summary_ = compute_local_summary();
  branch_summary_ = compute_branch_summary();

  // Bottom-up aggregation (§III-B).
  if (parent_) push_branch_up(keepalive);

  // Top-down replication (§III-C): own branch + local summaries flow to
  // every descendant with the ancestor role; direct children see us one
  // level up.
  if (config_.overlay_enabled) {
    push_replica_to_children({id_, overlay::SummaryKind::kBranch,
                              overlay::ReplicaRole::kAncestor, 1},
                             branch_summary_, keepalive, /*skip=*/id_);
    push_replica_to_children({id_, overlay::SummaryKind::kLocal,
                              overlay::ReplicaRole::kAncestor, 1},
                             local_summary_, keepalive, /*skip=*/id_);
  }
}

void RoadsServer::push_branch_up(bool keepalive) {
  // Silent when the branch digest has not moved since the last push.
  const auto digest = branch_summary_->digest();
  if (!keepalive && parent_push_digest_ == digest) {
    summary_push_suppressed_.inc();
    return;
  }
  parent_push_digest_ = digest;
  const auto stats = children_.aggregate();
  last_pushed_stats_ = stats;
  send_to_server(
      *parent_, msg::summary_update(*branch_summary_), sim::Channel::kUpdate,
      [child = id_, stats, s = branch_summary_, keepalive](RoadsServer& p) {
        p.handle_child_summary(child, stats, s, keepalive);
      });
}

void RoadsServer::handle_child_summary(sim::NodeId child,
                                       hierarchy::BranchStats stats,
                                       SummaryPtr branch, bool keepalive) {
  if (!children_.has(child)) return;  // stale update from a removed child
  children_.update_stats(child, stats);
  children_.update_heartbeat(child, network_.simulator().now());
  children_.set_summary(child, branch, network_.simulator().now());
  // The child's branch reaches its siblings as a sibling replica.
  if (config_.overlay_enabled) {
    push_replica_to_children({child, overlay::SummaryKind::kBranch,
                              overlay::ReplicaRole::kSibling, 1},
                             branch, keepalive, /*skip=*/child);
  }
  push_stats_up();
}

void RoadsServer::handle_replica(overlay::ReplicaSpec spec, SummaryPtr summary,
                                 bool keepalive) {
  replicas_.put(spec, summary, network_.simulator().now());
  // Cascade down; a sibling of my parent-level sender becomes an
  // ancestor-sibling for my descendants, one level further from their
  // common ancestor.
  overlay::ReplicaSpec down = spec;
  if (down.role == overlay::ReplicaRole::kSibling) {
    down.role = overlay::ReplicaRole::kAncestorSibling;
  }
  if (down.levels_up < 255) ++down.levels_up;
  push_replica_to_children(down, summary, keepalive, /*skip=*/id_);
}

void RoadsServer::push_replica_to_children(const overlay::ReplicaSpec& spec,
                                           const SummaryPtr& summary,
                                           bool keepalive, sim::NodeId skip) {
  if (!summary || children_.empty()) return;
  // Replica traffic splits off the generic kUpdate channel default.
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kReplicaCascade);
  const auto digest = summary->digest();
  for (const auto child : children_.ids()) {
    if (child == skip) continue;
    if (!note_push(child, spec.origin, static_cast<std::uint8_t>(spec.kind),
                   digest, keepalive)) {
      summary_push_suppressed_.inc();
      continue;
    }
    send_to_server(child, msg::replica_push(*summary), sim::Channel::kUpdate,
                   [spec, summary, keepalive](RoadsServer& c) {
                     c.handle_replica(spec, summary, keepalive);
                   });
  }
}

bool RoadsServer::note_push(sim::NodeId dest, sim::NodeId origin,
                            std::uint8_t kind, std::uint64_t digest,
                            bool keepalive) {
  auto& streams = pushed_digests_[dest];
  auto [it, inserted] = streams.try_emplace({origin, kind}, digest);
  if (inserted || keepalive || it->second != digest) {
    it->second = digest;
    return true;
  }
  return false;
}

std::uint64_t RoadsServer::stored_summary_bytes() const {
  std::uint64_t total = replicas_.stored_bytes();
  for (const auto& [_, s] : children_.summaries()) {
    if (s) total += s->wire_size();
  }
  if (local_summary_) total += local_summary_->wire_size();
  if (branch_summary_) total += branch_summary_->wire_size();
  return total;
}

// --------------------------------------------------------------------------
// Join protocol
// --------------------------------------------------------------------------

void RoadsServer::start_join(sim::NodeId seed,
                             util::UniqueFunction<void(bool)> on_complete) {
  join_ = JoinState{};
  join_.active = true;
  join_.current = seed;
  join_.on_complete = std::move(on_complete);
  // Roots the join negotiation's causal tree (request, redirects and
  // accept/backtrack responses chain under it).
  sim::TraceSpan trace_root(network_, id_, "join");
  send_join_request(seed);
}

void RoadsServer::send_join_request(sim::NodeId target) {
  const auto seq = ++join_.request_seq;
  send_to_server(target, msg::join_request(join_.excluded.size()),
                 sim::Channel::kControl,
                 [joiner = id_, excluded = join_.excluded](RoadsServer& s) {
                   s.handle_join_request(joiner, excluded);
                 });
  // Dead targets never answer; give up after the timeout and treat it
  // like an unwilling branch. The epoch guard keeps a timeout armed
  // before a crash from firing into the restarted server's join state
  // (request_seq restarts from zero, so seq alone could collide).
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kJoin);
  network_.simulator().schedule_after(
      kJoinTimeout, [this, target, seq, epoch = life_epoch_] {
    if (!alive_ || life_epoch_ != epoch || !join_.active ||
        join_.request_seq != seq) return;
    ROADS_DEBUG << "server " << id_ << ": join request to " << target
                << " timed out";
    handle_join_response(target, JoinOutcome::kBacktrack, 0,
                         hierarchy::RootPath{});
  });
}

void RoadsServer::handle_join_request(sim::NodeId joiner,
                                      std::vector<sim::NodeId> excluded) {
  JoinOutcome outcome;
  sim::NodeId redirect_to = 0;
  // Loop avoidance: never adopt an ancestor of ourselves — checked both
  // against the root path (§III-A) and the current parent directly, so
  // a two-cycle cannot form even while root paths are stale after
  // churn.
  if (root_path_.contains(joiner) || (parent_ && *parent_ == joiner)) {
    outcome = JoinOutcome::kBacktrack;
  } else {
    // Proximity policy steers toward the child closest to the joiner
    // in the delay space.
    const hierarchy::JoinPolicy::LatencyFn latency =
        [this, joiner](sim::NodeId child) {
          return static_cast<double>(network_.latency(joiner, child));
        };
    const auto decision =
        join_policy_.decide(children_, excluded, rng_, latency);
    if (!decision) {
      outcome = JoinOutcome::kBacktrack;
    } else if (decision->accept) {
      outcome = JoinOutcome::kAccepted;
      // Idempotent: a joiner may retry after a lost/late response while
      // we already registered it.
      if (!children_.has(joiner)) {
        children_.add(joiner, network_.simulator().now());
      } else {
        children_.update_heartbeat(joiner, network_.simulator().now());
      }
      push_stats_up();
    } else {
      outcome = JoinOutcome::kRedirect;
      redirect_to = decision->descend_to;
    }
  }
  send_to_server(joiner, msg::join_response(root_path_.length()),
                 sim::Channel::kControl,
                 [responder = id_, outcome, redirect_to,
                  path = root_path_](RoadsServer& j) {
                   j.handle_join_response(responder, outcome, redirect_to,
                                          path);
                 });
}

void RoadsServer::handle_join_response(sim::NodeId responder,
                                       JoinOutcome outcome,
                                       sim::NodeId redirect_to,
                                       hierarchy::RootPath responder_path) {
  if (!join_.active || responder != join_.current) return;  // stale
  ++join_.request_seq;  // disarm the pending timeout

  switch (outcome) {
    case JoinOutcome::kAccepted: {
      parent_ = responder;
      root_path_ = hierarchy::RootPath::extend(responder_path, id_);
      last_parent_heartbeat_ = network_.simulator().now();
      recovery_candidates_.clear();  // back in a tree
      joins_.inc();
      trace_event(obs::TraceKind::kJoin, responder,
                  static_cast<double>(root_path_.length()));
      // Tell the new parent our real branch shape right away so join
      // steering stays accurate, and hand it our branch summary if we
      // carry a subtree from before a rejoin.
      last_pushed_stats_ = hierarchy::BranchStats{};
      parent_push_digest_.reset();  // new parent: never suppress its first push
      push_stats_up();
      if (branch_summary_) push_branch_up(/*keepalive=*/true);
      finish_join(true);
      return;
    }
    case JoinOutcome::kRedirect: {
      join_.descended.push_back(join_.current);
      join_.current = redirect_to;
      send_join_request(redirect_to);
      return;
    }
    case JoinOutcome::kBacktrack: {
      join_.excluded.push_back(join_.current);
      if (!join_.descended.empty()) {
        join_.current = join_.descended.back();
        join_.descended.pop_back();
        send_join_request(join_.current);
      } else if (!join_.fallbacks.empty()) {
        join_.current = join_.fallbacks.front();
        join_.fallbacks.erase(join_.fallbacks.begin());
        join_.excluded.clear();
        send_join_request(join_.current);
      } else {
        finish_join(false);
      }
      return;
    }
  }
}

void RoadsServer::finish_join(bool success) {
  join_.active = false;
  if (join_.on_complete) {
    auto cb = std::move(join_.on_complete);
    join_.on_complete = nullptr;
    cb(success);
  }
}

void RoadsServer::push_stats_up() {
  if (!parent_) return;
  const auto stats = children_.aggregate();
  if (stats == last_pushed_stats_) return;
  last_pushed_stats_ = stats;
  send_to_server(*parent_, msg::heartbeat_up(), sim::Channel::kControl,
                 [child = id_, stats](RoadsServer& p) {
                   p.handle_stats_update(child, stats);
                 });
}

void RoadsServer::handle_stats_update(sim::NodeId child,
                                      hierarchy::BranchStats stats) {
  if (!children_.has(child)) return;
  children_.update_stats(child, stats);
  children_.update_heartbeat(child, network_.simulator().now());
  push_stats_up();
}

// --------------------------------------------------------------------------
// Maintenance
// --------------------------------------------------------------------------

void RoadsServer::on_heartbeat_timer() {
  sim::TraceSpan trace_root(network_, id_, "heartbeat_wave");
  if (parent_) {
    const auto stats = children_.aggregate();
    send_to_server(*parent_, msg::heartbeat_up(), sim::Channel::kMaintenance,
                   [child = id_, stats](RoadsServer& p) {
                     p.handle_heartbeat_up(child, stats);
                   });
  }
  const std::vector<sim::NodeId> root_children =
      is_root() ? children_.ids() : std::vector<sim::NodeId>{};
  for (const auto child : children_.ids()) {
    send_to_server(
        child,
        msg::heartbeat_down(root_path_.length(), root_children.size()),
        sim::Channel::kMaintenance,
        [from = id_, path = root_path_, root_children](RoadsServer& c) {
          c.handle_heartbeat_down(from, path, root_children);
        });
  }
}

void RoadsServer::handle_heartbeat_up(sim::NodeId child,
                                      hierarchy::BranchStats stats) {
  if (!children_.has(child)) return;
  children_.update_heartbeat(child, network_.simulator().now());
  children_.update_stats(child, stats);
}

void RoadsServer::handle_heartbeat_down(
    sim::NodeId from, hierarchy::RootPath path,
    std::vector<sim::NodeId> root_children) {
  if (!parent_ || *parent_ != from) return;  // stale
  last_parent_heartbeat_ = network_.simulator().now();
  // Root paths ride on heartbeats (§III-A): refresh ours.
  root_path_ = hierarchy::RootPath::extend(path, id_);
  if (!root_children.empty()) root_children_ = std::move(root_children);
}

void RoadsServer::on_failure_check_timer() {
  sim::TraceSpan trace_root(network_, id_, "failure_check");
  const auto now = network_.simulator().now();
  const sim::Time limit =
      config_.heartbeat_period * config_.heartbeat_miss_limit;

  // Children that went silent.
  for (const auto child : children_.expired(now - limit)) {
    ROADS_INFO << "server " << id_ << ": child " << child << " timed out";
    heartbeat_misses_.inc();
    trace_event(obs::TraceKind::kHeartbeatMiss, child);
    children_.remove(child);
    pushed_digests_.erase(child);
    push_stats_up();
  }

  // Parent that went silent.
  if (parent_ && now - last_parent_heartbeat_ > limit) {
    ROADS_INFO << "server " << id_ << ": parent " << *parent_
               << " timed out";
    heartbeat_misses_.inc();
    trace_event(obs::TraceKind::kHeartbeatMiss, *parent_);
    parent_lost();
  }

  // Partition recovery: a root that got here by failed rejoin keeps
  // retrying its old contacts so partitions re-merge when possible.
  if (is_root() && !recovery_candidates_.empty() && !join_.active) {
    rejoin(recovery_candidates_);
  }

  replicas_.sweep(now);
}

void RoadsServer::parent_lost() {
  const auto old_path = root_path_;
  const auto old_parent = parent_;
  const bool parent_was_root =
      parent_ && old_path.length() >= 2 && old_path.root() == *parent_;
  parent_.reset();
  parent_push_digest_.reset();

  std::vector<sim::NodeId> candidates;
  if (parent_was_root) {
    // Root election (§III-A): the root's children elect the one with
    // the smallest id, learned from the root's heartbeat children list.
    // The other members double as fallbacks if the winner died.
    for (const auto n : root_children_) {
      if (n != id_) candidates.push_back(n);
    }
    std::sort(candidates.begin(), candidates.end());
    if (candidates.empty() || id_ < candidates.front()) {
      ROADS_INFO << "server " << id_ << ": elected new root";
      trace_event(obs::TraceKind::kRootElection, id_);
      become_root();
      // The detection may have been a false positive (lost heartbeats);
      // keep the old root as a recovery contact so a spurious
      // self-election re-merges instead of splitting the tree.
      recovery_candidates_.assign(1, *old_parent);
      return;
    }
  } else {
    // Rejoin starting at the grandparent, then one level up at a time
    // (§III-A Hierarchy Maintenance).
    candidates = old_path.rejoin_candidates();
    if (candidates.empty()) {
      // No ancestors known; become root of our own partition.
      become_root();
      return;
    }
  }
  recovery_candidates_ = candidates;
  rejoins_.inc();
  trace_event(obs::TraceKind::kRejoin, candidates.front());
  rejoin(std::move(candidates));
}

void RoadsServer::rejoin(std::vector<sim::NodeId> candidates) {
  join_ = JoinState{};
  join_.active = true;
  join_.current = candidates.front();
  join_.fallbacks.assign(candidates.begin() + 1, candidates.end());
  join_.on_complete = [this](bool ok) {
    if (!ok) become_root();  // recovery_candidates_ keeps us retrying
  };
  send_join_request(join_.current);
}

void RoadsServer::handle_leave_from_child(sim::NodeId child) {
  if (!children_.has(child)) return;
  children_.remove(child);
  pushed_digests_.erase(child);
  push_stats_up();
}

void RoadsServer::handle_leave_from_parent(sim::NodeId parent) {
  if (!parent_ || *parent_ != parent) return;
  parent_lost();
}

// --------------------------------------------------------------------------
// Query evaluation
// --------------------------------------------------------------------------

void RoadsServer::handle_query(std::shared_ptr<RoadsClient> client,
                               QueryMode mode) {
  if (!alive_) return;
  query_hops_.inc();
  client->on_arrival(id_);

  // Negative hits first, before admission: a cached summary-prune miss
  // is answered empty at lookup cost without occupying a slot, so
  // false-positive storms (stale summaries under a staleness attack)
  // cannot queue out genuine queries. Start-mode queries never false-
  // positive, so only forwarded modes are checked. The key checked here
  // is the one a query admitted at once looks up.
  const bool cached = config_.query_cache_enabled;
  const bool forwarded = mode != QueryMode::kStart;
  CacheKey key;
  if (cached && forwarded) {
    key = cache_key(*client, mode);
    const auto entry = query_cache_.find(key.key, key.stamp);
    if (entry && entry->false_positive) {
      // Every false-positive reply is this empty one; not holding the
      // entry keeps the closure inline in the event.
      static const auto kNegativeReply = [] {
        auto reply = std::make_shared<CachedReply>();
        reply->false_positive = true;
        return std::shared_ptr<const CachedReply>(std::move(reply));
      }();
      cache_neg_hits_.inc();
      network_.defer(id_, kQueryCacheHitDelay, "proc",
                     [this, client] { send_reply(client, kNegativeReply); });
      return;
    }
  }

  // Admission control. limit == 0 keeps the historical infinite-server
  // model: every query is admitted immediately (bit-identical replay).
  // A queued query is keyed again when dequeued (finish_query), since
  // the state can move while it waits, and a start-mode query is keyed
  // only once admitted.
  const auto limit = config_.query_concurrency_limit;
  if (limit != 0 && active_queries_ >= limit) {
    if (query_queue_.size() < config_.query_queue_limit) {
      query_queue_.push_back(
          QueuedQuery{std::move(client), mode, obs::current_trace_context()});
    } else {
      shed_query(client);
    }
    return;
  }
  if (limit != 0) ++active_queries_;
  if (cached && !forwarded) key = cache_key(*client, mode);
  begin_query(std::move(client), mode, key);
}

void RoadsServer::begin_query(std::shared_ptr<RoadsClient> client,
                              QueryMode mode, CacheKey key) {
  // The processing span opens at evaluation start so admission queueing
  // time is not attributed to per-hop processing.
  if (config_.query_cache_enabled) {
    if (auto entry = query_cache_.find(key.key, key.stamp)) {
      cache_hits_.inc();
      // A hit holds its slot only for the lookup/assembly delay — the
      // source of the cache's sustainable-QPS win.
      network_.defer(id_, kQueryCacheHitDelay, "proc",
                     [this, client, entry = std::move(entry)] {
                       send_reply(client, entry);
                       finish_query();
                     });
      return;
    }
    cache_misses_.inc();
  }
  network_.defer(id_, config_.query_processing_delay, "proc",
                 [this, client, mode] {
                   evaluate_query(client, mode);
                   finish_query();
                 });
}

void RoadsServer::evaluate_query(const std::shared_ptr<RoadsClient>& client,
                                 QueryMode mode) {
  const auto& q = client->query();
  auto reply = std::make_shared<CachedReply>();
  auto& targets = reply->targets;

  // Local data: this server's own store (a plain count unless the
  // records travel back; `stats` is read only when they do)...
  store::QueryStats stats{};
  std::size_t local_matches = 0;
  auto& local_records = reply->records;
  if (client->collect_results()) {
    const auto local_ids = store_.query(q, &stats);
    local_matches = local_ids.size();
    local_records.reserve(local_ids.size());
    for (const auto rid : local_ids) {
      local_records.push_back(store_.get(rid));
    }
  } else {
    local_matches = store_.count_matching(q);
  }
  // ...plus summary-only owner attachments. Co-located owners
  // answer through this server (policy applied); remote owners
  // are redirect targets probed in local-only mode.
  for (const auto& att : attachments_) {
    if (att.mode != ExportMode::kSummaryOnly || !att.summary) continue;
    if (!att.summary->matches(q)) continue;
    if (att.owner->node() == id_) {
      if (client->collect_results()) {
        auto records = att.owner->answer(client->principal(), q);
        local_matches += records.size();
        for (auto& r : records) local_records.push_back(std::move(r));
      } else {
        local_matches += att.owner->answer_count(client->principal(), q);
      }
    } else {
      targets.emplace_back(att.owner->node(), QueryMode::kLocalOnly);
    }
  }

  // Branch descent through matching children (§III-B).
  if (mode != QueryMode::kLocalOnly) {
    for (const auto& [child, summary] : children_.summaries()) {
      if (summary && summary->matches(q)) {
        targets.emplace_back(child, QueryMode::kBranch);
      }
    }
  }

  // Overlay shortcuts, only from the start server (§III-C):
  // sibling / ancestor-sibling branches are descent entry points;
  // matching ancestor locals are probed local-only.
  if (mode == QueryMode::kStart) {
    // The client's scope limits how far up the hierarchy the
    // shortcuts may reach (§III-C's widening control).
    const unsigned scope = client->scope();
    for (const auto* r : replicas_.matching(q, overlay::SummaryKind::kBranch)) {
      if (r->spec.role != overlay::ReplicaRole::kAncestor &&
          r->spec.levels_up <= scope) {
        targets.emplace_back(r->spec.origin, QueryMode::kBranch);
        ++reply->shortcut_hits;
      }
    }
    for (const auto* r : replicas_.matching(q, overlay::SummaryKind::kLocal)) {
      if (r->spec.role == overlay::ReplicaRole::kAncestor &&
          r->spec.levels_up <= scope) {
        targets.emplace_back(r->spec.origin, QueryMode::kLocalOnly);
        ++reply->shortcut_hits;
      }
    }
  }

  // A summary somewhere matched this query and steered it here,
  // yet the server has nothing and nowhere further to send it —
  // the false-positive redirect cost of approximate summaries.
  reply->false_positive =
      mode != QueryMode::kStart && local_matches == 0 && targets.empty();
  reply->local_matches = local_matches;
  reply->results_pending = client->collect_results() && local_matches > 0;
  if (reply->results_pending) {
    for (const auto& r : local_records) reply->record_bytes += r.wire_size();
    stats.matches = local_records.size();
    reply->service_us = store::service_time_us(config_.service_model, stats,
                                               reply->record_bytes);
  }

  // Cache fill, keyed by the state stamp AT EVALUATION TIME (the state
  // the reply was computed from — a push that landed while this query
  // sat in the processing delay keys the entry to the new state).
  if (config_.query_cache_enabled) {
    const auto key = cache_key(*client, mode);
    const auto evicted = query_cache_.insert(key.key, key.stamp, reply);
    if (evicted > 0) cache_evicted_.inc(evicted);
  }
  send_reply(client, std::move(reply));
}

void RoadsServer::send_reply(const std::shared_ptr<RoadsClient>& client,
                             std::shared_ptr<const CachedReply> reply) {
  // Every serve bumps the §V meters (fp rate, shortcut usage), so they
  // read the same whether the reply was evaluated or cached.
  if (reply->false_positive) {
    query_false_positives_.inc();
    // Pinned to the processing span: the critical-path analyzer
    // marks the transit that fed this hop as detour time.
    trace_event(obs::TraceKind::kQueryFalsePositive, client->location(), 0.0,
                obs::current_trace_context().span);
  }
  if (reply->shortcut_hits > 0) overlay_shortcut_hits_.inc(reply->shortcut_hits);
  send_query_reply(network_, id_, client, std::move(reply));
}

void RoadsServer::finish_query() {
  if (config_.query_concurrency_limit == 0) return;
  if (active_queries_ > 0) --active_queries_;
  while (!query_queue_.empty() &&
         active_queries_ < config_.query_concurrency_limit) {
    auto next = std::move(query_queue_.front());
    query_queue_.pop_front();
    ++active_queries_;
    // The queue is the one hand-off outside the event queue: the
    // dequeued query resumes in the context it arrived under, not in
    // the finishing query's.
    const obs::ScopedTraceContext trace_scope(next.trace);
    const auto key = config_.query_cache_enabled
                         ? cache_key(*next.client, next.mode)
                         : CacheKey{};
    begin_query(std::move(next.client), next.mode, key);
  }
}

void RoadsServer::shed_query(const std::shared_ptr<RoadsClient>& client) {
  cache_sheds_.inc();
  network_.send(id_, client->location(), msg::overload_reply(),
                sim::Channel::kQuery, [client, server = id_] {
                  client->on_overload(server);
                });
}

RoadsServer::CacheKey RoadsServer::cache_key(const RoadsClient& client,
                                             QueryMode mode) const {
  const auto stamp = summary_state_stamp();
  util::Fnv1a h;
  h.add(client.query_digest());
  h.add(static_cast<std::uint64_t>(mode));
  h.add(static_cast<std::uint64_t>(client.scope()));
  h.add(static_cast<std::uint64_t>(client.principal()));
  h.add(static_cast<std::uint64_t>(client.collect_results() ? 1 : 0));
  h.add(stamp);
  return {stamp, h.value()};
}

std::uint64_t RoadsServer::summary_state_stamp() const {
  const auto child_version = children_.summary_version();
  const auto replica_version = replicas_.version();
  if (child_version != stamp_child_version_ ||
      replica_version != stamp_replica_version_) {
    // The structural fold walks every child summary and replica, so it
    // is kept until the child table or the replica store reports a
    // change; each digest() it reads is a memo hit (the sender hashed
    // the summary before pushing it). Keepalive pushes that re-deliver
    // unchanged digests recompute the same fold: the cache stays warm.
    util::Fnv1a fold;
    for (const auto& [child, summary] : children_.summaries()) {
      if (!summary) continue;
      fold.add(static_cast<std::uint64_t>(child));
      fold.add(summary->digest());
    }
    for (const auto* r : replicas_.all()) {
      fold.add(static_cast<std::uint64_t>(r->spec.origin));
      fold.add(static_cast<std::uint64_t>(r->spec.kind));
      fold.add(static_cast<std::uint64_t>(r->spec.role));
      fold.add(static_cast<std::uint64_t>(r->spec.levels_up));
      if (r->summary) fold.add(r->summary->digest());
    }
    state_stamp_fold_ = fold.value();
    stamp_child_version_ = child_version;
    stamp_replica_version_ = replica_version;
    // An upper bound on entries actually invalidated: an unchanged-
    // digest push refolds to the same value.
    cache_invalidates_.inc();
  }
  // Live versions are folded fresh on every lookup: record mutations —
  // including out-of-band ones a staleness attack performs directly on
  // owner stores — must invalidate without any protocol message.
  util::Fnv1a h;
  h.add(state_stamp_fold_);
  h.add(store_.version());
  for (const auto& att : attachments_) {
    if (att.mode != ExportMode::kSummaryOnly) continue;
    h.add(static_cast<std::uint64_t>(att.owner->node()));
    h.add(att.owner->store().version());
    h.add(att.exported_digest);
  }
  return h.value();
}

void send_query_reply(sim::Network& network, sim::NodeId from,
                      const std::shared_ptr<RoadsClient>& client,
                      std::shared_ptr<const CachedReply> reply) {
  network.send(from, client->location(),
               msg::redirect_reply(reply->targets.size()), sim::Channel::kQuery,
               [client, from, reply] {
                 client->on_reply(from, reply->targets, reply->local_matches,
                                  reply->results_pending);
               });

  if (!reply->results_pending) return;
  // Retrieval time is its own span (child of proc) so response
  // critical paths separate evaluation from service delay. The delay
  // is read before the closure takes the reply.
  const auto service_us = reply->service_us;
  network.defer(
      from, service_us, "service",
      [&network, from, client, reply = std::move(reply)] {
        network.send(from, client->location(),
                     msg::results(reply->record_bytes), sim::Channel::kResult,
                     [client, from, reply] {
                       client->on_results(from, reply->records);
                     });
      });
}

}  // namespace roads::core

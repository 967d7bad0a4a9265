// RoadsServer: one server of the federated hierarchy. Implements every
// protocol of §III over the simulated network:
//
//  * join (balanced descent with backtracking, loop avoidance via root
//    paths, join-request timeouts for dead targets);
//  * bottom-up summary aggregation (periodic refresh, child branch
//    summaries, branch stats);
//  * the replication overlay (top-down pushes of own branch/local
//    summaries, receive-time forwarding of child summaries to siblings,
//    cascade of replicas down the subtree with role transformation);
//  * maintenance (heartbeats both ways, failure detection, rejoin via
//    root-path candidates, root election, graceful departure, TTL
//    sweeps);
//  * query evaluation (local store + owner attachments + child branch
//    summaries + overlay shortcuts, client-driven redirects).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "hierarchy/child_table.h"
#include "hierarchy/join_policy.h"
#include "hierarchy/root_path.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "overlay/replica_store.h"
#include "record/schema.h"
#include "roads/client.h"
#include "roads/config.h"
#include "roads/dispatch.h"
#include "roads/messages.h"
#include "roads/owner.h"
#include "roads/query_cache.h"
#include "sim/network.h"
#include "store/record_store.h"
#include "summary/resource_summary.h"
#include "util/hash.h"
#include "util/unique_function.h"
#include "util/rng.h"

namespace roads::core {

using overlay::SummaryPtr;

class RoadsServer : public QueryTarget {
 public:
  RoadsServer(sim::NodeId id, const RoadsConfig& config, sim::Network& network,
              Directory& directory, record::Schema schema, util::Rng rng);

  // --- Identity & topology -------------------------------------------------
  sim::NodeId id() const { return id_; }
  bool is_root() const { return !parent_.has_value(); }
  std::optional<sim::NodeId> parent() const { return parent_; }
  const hierarchy::ChildTable& children() const { return children_; }
  const hierarchy::RootPath& root_path() const { return root_path_; }
  bool alive() const { return alive_; }

  // --- Lifecycle -----------------------------------------------------------
  /// Makes this server the hierarchy root (the bootstrap node).
  void become_root();
  /// Joins the hierarchy starting the descent at `seed`; `on_complete`
  /// fires with success/failure once settled.
  void start_join(sim::NodeId seed,
                  util::UniqueFunction<void(bool)> on_complete = {});
  /// Starts the periodic summary-refresh timer (and maintenance timers
  /// when the config enables them).
  void start_timers();
  /// Temporarily skips the periodic summary refresh (timers keep
  /// ticking cheaply). Experiment drivers pause refresh while replaying
  /// query batches so latency is measured under steady summaries.
  void set_refresh_paused(bool paused) { refresh_paused_ = paused; }

  /// Graceful departure: notify parent and children, then go silent.
  void leave();
  /// Abrupt failure: timers stop, the network drops this node's
  /// traffic; peers find out via heartbeat timeouts.
  void fail();
  /// Recovers a failed server: soft state (topology, child summaries,
  /// replicas, suppression digests) is lost; the record store and owner
  /// attachments are durable. The server comes back up, restarts its
  /// timers and rejoins the hierarchy by descending from `seed` —
  /// becoming a (partition) root if the join fails.
  void restart(sim::NodeId seed);

  // --- Resource attachment (§III-A) ----------------------------------------
  /// Attaches an owner. kDetailedRecords copies the owner's records
  /// into this server's store (owner trusts/controls this server);
  /// kSummaryOnly keeps records at the owner, which exports a summary
  /// and answers detailed queries itself.
  void attach_owner(std::shared_ptr<ResourceOwner> owner, ExportMode mode);
  /// Re-exports an owner's current data after it changed.
  void reexport_owner(record::OwnerId owner);

  store::RecordStore& local_store() { return store_; }
  const store::RecordStore& local_store() const { return store_; }

  // --- Summary protocol ----------------------------------------------------
  /// Recomputes local (rebuilding the store's summary only when the
  /// store's version moved) and branch summaries, sends the branch
  /// summary to the parent, pushes own summaries and stored child
  /// summaries to children. Pushes whose content digest matches the
  /// last one sent are suppressed except on keepalive rounds. Runs on
  /// the ts timer; tests may call it directly.
  void refresh_summaries();

  /// `keepalive` tags pushes from a keepalive wave: receivers propagate
  /// those unconditionally so TTL renewal reaches the whole subtree.
  void handle_child_summary(sim::NodeId child, hierarchy::BranchStats stats,
                            SummaryPtr branch, bool keepalive = true);
  void handle_replica(overlay::ReplicaSpec spec, SummaryPtr summary,
                      bool keepalive = true);

  /// Latest computed summaries (may be null before the first refresh).
  SummaryPtr branch_summary() const { return branch_summary_; }
  SummaryPtr local_summary() const { return local_summary_; }
  const overlay::ReplicaStore& replicas() const { return replicas_; }
  /// Branch summaries received from children (origin -> summary).
  const std::map<sim::NodeId, SummaryPtr>& child_summaries() const {
    return children_.summaries();
  }

  /// Total bytes of summary state held (children + replicas + own) —
  /// Table I's per-server storage metric. The local and branch
  /// summaries count once each even when they are one shared object:
  /// the metric models the paper's per-server storage, not this
  /// process's heap.
  std::uint64_t stored_summary_bytes() const;

  // --- Join protocol (server side) ------------------------------------------
  void handle_join_request(sim::NodeId joiner,
                           std::vector<sim::NodeId> excluded);

  // --- Maintenance protocol -------------------------------------------------
  void handle_stats_update(sim::NodeId child, hierarchy::BranchStats stats);
  void handle_heartbeat_up(sim::NodeId child, hierarchy::BranchStats stats);
  void handle_heartbeat_down(sim::NodeId from, hierarchy::RootPath path,
                             std::vector<sim::NodeId> root_children);
  void handle_leave_from_child(sim::NodeId child);
  void handle_leave_from_parent(sim::NodeId parent);

  // --- Queries ---------------------------------------------------------------
  void handle_query(std::shared_ptr<RoadsClient> client,
                    QueryMode mode) override;

  /// Admission/cache introspection (benchmark probes).
  std::size_t queued_queries() const { return query_queue_.size(); }
  std::size_t query_cache_entries() const { return query_cache_.size(); }
  std::uint64_t query_cache_bytes() const { return query_cache_.bytes(); }

 private:
  struct Attachment {
    std::shared_ptr<ResourceOwner> owner;
    ExportMode mode = ExportMode::kDetailedRecords;
    SummaryPtr summary;  // latest export for kSummaryOnly
    /// Owner-store version and summary digest at the last export, so
    /// unchanged owners skip both the recompute and the re-send.
    std::uint64_t exported_version = 0;
    std::uint64_t exported_digest = 0;
  };

  enum class JoinOutcome : std::uint8_t { kAccepted, kRedirect, kBacktrack };

  void handle_join_response(sim::NodeId responder, JoinOutcome outcome,
                            sim::NodeId redirect_to,
                            hierarchy::RootPath responder_path);
  void send_join_request(sim::NodeId target);
  void finish_join(bool success);

  /// Recomputes this node's aggregate stats and pushes them up if they
  /// changed (keeps join steering accurate between refresh rounds).
  void push_stats_up();

  /// Exports `att`'s owner: its records into the store, or a fresh
  /// summary, charged to kUpdate when the owner is remote. The export
  /// marks leave the next refresh's send decision to that refresh.
  void export_owner(Attachment& att);
  void refresh_attachment_summaries(bool keepalive);
  /// store_summary_ (rebuilt first if the store's version moved) merged
  /// with every summary-only attachment; store_summary_ itself when
  /// none merges in.
  SummaryPtr compute_local_summary();
  /// local_summary_ merged with every child's branch summary; the
  /// local summary object itself when none merges in.
  SummaryPtr compute_branch_summary() const;
  /// Sends the branch summary and branch stats to the parent, unless
  /// the branch digest equals the last one pushed and this is no
  /// keepalive wave (then counts a suppressed push).
  void push_branch_up(bool keepalive);
  /// Pushes replica `spec` to every child but `skip` (own id: none),
  /// suppressing each stream whose digest did not move (note_push).
  void push_replica_to_children(const overlay::ReplicaSpec& spec,
                                const SummaryPtr& summary, bool keepalive,
                                sim::NodeId skip);

  /// Returns true when a push with `digest` must actually be sent to
  /// `dest` for the (origin, kind) stream — i.e. the content changed,
  /// the stream is new, or this is a keepalive wave — and records the
  /// digest as the last sent. False means: suppress.
  bool note_push(sim::NodeId dest, sim::NodeId origin, std::uint8_t kind,
                 std::uint64_t digest, bool keepalive);

  /// Arms a timer chain that runs `tick` after `first`, then every
  /// `config_.*period` until the server stops or restarts.
  void start_periodic(sim::Time first, sim::Time RoadsConfig::*period,
                      void (RoadsServer::*tick)());
  void on_refresh_timer();
  void on_heartbeat_timer();
  void on_failure_check_timer();
  void parent_lost();
  /// Joins `candidates.front()`, keeping the rest as fallbacks in
  /// order; stands up as a partition root if every one fails.
  void rejoin(std::vector<sim::NodeId> candidates);

  // --- Query serving internals (admission + caching) ------------------------
  /// A query's result-cache key and the summary-state stamp it folds,
  /// computed together so a lookup folds the state once.
  struct CacheKey {
    std::uint64_t stamp = 0;
    std::uint64_t key = 0;
  };
  /// Starts serving an admitted query: cache lookup under `key` (read
  /// only when the cache is on) decides whether the evaluation slot is
  /// held for the hit delay or the full processing delay.
  void begin_query(std::shared_ptr<RoadsClient> client, QueryMode mode,
                   CacheKey key);
  /// The cold evaluation (local store + attachments + child summaries +
  /// overlay shortcuts), cache fill, and reply send. Runs inside the
  /// processing-delay event under its `proc` span.
  void evaluate_query(const std::shared_ptr<RoadsClient>& client,
                      QueryMode mode);
  /// Sends a reply, cold, cached or a negative hit: bumps the
  /// false-positive and shortcut meters it names (a false positive also
  /// marks the processing span), then hands it to send_query_reply.
  void send_reply(const std::shared_ptr<RoadsClient>& client,
                  std::shared_ptr<const CachedReply> reply);
  /// Releases an evaluation slot and admits the next queued query.
  void finish_query();
  /// Sheds `client` with an immediate overload reply.
  void shed_query(const std::shared_ptr<RoadsClient>& client);
  /// Cache key: query digest folded with mode, client scope/principal/
  /// collect flag and the current summary-state stamp, returned with
  /// that stamp. Called only with the cache on: each call may refold
  /// the state and count roads.query.cache.invalidate.
  CacheKey cache_key(const RoadsClient& client, QueryMode mode) const;
  /// Fingerprint of every input a query evaluation reads: live store +
  /// owner-store versions plus the fold of the memoized child-summary
  /// and replica digests, refolded only when the child table's or the
  /// replica store's version has moved. Equal stamps => evaluation
  /// would produce a byte-identical reply.
  std::uint64_t summary_state_stamp() const;

  /// Sends a protocol message to `to`; `deliver(peer)` runs at the
  /// receiving server if it is alive at delivery time. Templated so
  /// the caller's functor composes into ONE sim::DeliverFn closure —
  /// no intermediate std::function wrapper, no extra allocation.
  template <class F>
  void send_to_server(sim::NodeId to, std::uint64_t bytes,
                      sim::Channel channel, F deliver) {
    network_.send(id_, to, bytes, channel,
                  [this, to, fn = std::move(deliver)]() mutable {
                    RoadsServer& peer = directory_.server(to);
                    if (peer.alive()) fn(peer);
                  });
  }

  /// Records a maintenance/query trace event when tracing is on.
  void trace_event(obs::TraceKind kind, sim::NodeId peer, double value = 0.0,
                   std::uint64_t span = 0) const;

  sim::NodeId id_;
  const RoadsConfig& config_;
  sim::Network& network_;
  Directory& directory_;
  record::Schema schema_;
  util::Rng rng_;
  hierarchy::JoinPolicy join_policy_;

  bool alive_ = true;
  bool timers_started_ = false;
  bool refresh_paused_ = false;
  /// Bumped by fail() (which leave() ends in) and restart(). Timer
  /// closures and join timeouts capture the epoch they were armed in
  /// and go inert when it changes — otherwise a crash+restart would
  /// resume the pre-crash timer chains alongside the new ones.
  std::uint64_t life_epoch_ = 0;
  std::optional<sim::NodeId> parent_;
  hierarchy::RootPath root_path_;
  hierarchy::ChildTable children_;
  hierarchy::BranchStats last_pushed_stats_;

  // Federation-wide instruments, shared by every server through the
  // network's registry (§V accounting: hop counts, summary-prune false
  // positives, overlay shortcut usage, churn events).
  obs::Counter& query_hops_;
  obs::Counter& query_false_positives_;
  obs::Counter& summary_merges_;
  obs::Counter& overlay_shortcut_hits_;
  obs::Counter& joins_;
  obs::Counter& rejoins_;
  obs::Counter& heartbeat_misses_;
  // Refresh accounting: summaries rebuilt or skipped, pushes suppressed.
  obs::Counter& summary_refresh_skipped_;
  obs::Counter& summary_push_suppressed_;
  obs::Counter& summary_full_rebuilds_;
  obs::Histogram& refresh_us_;
  // Query-serving counters (admission + digest-keyed cache).
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& cache_invalidates_;
  obs::Counter& cache_neg_hits_;
  obs::Counter& cache_sheds_;
  obs::Counter& cache_evicted_;

  store::RecordStore store_;
  std::vector<Attachment> attachments_;
  SummaryPtr local_summary_;
  SummaryPtr branch_summary_;
  overlay::ReplicaStore replicas_;
  /// Summary of store_ alone (no attachment merges) and the store
  /// version it was built at; rebuilt whole when the version moves and
  /// never edited, so it is shared: without a summary-only attachment
  /// it *is* local_summary_, and an untouched store republishes the
  /// same object with its memoized digest.
  SummaryPtr store_summary_;
  std::uint64_t store_summary_version_ = 0;
  /// Refresh rounds completed; round r is a keepalive wave when
  /// r % summary_keepalive_rounds == 0 (so the first round always is).
  std::uint64_t refresh_round_ = 0;
  /// Digest of the branch summary last pushed to the parent; reset on
  /// parent change so a new parent always gets a first push.
  std::optional<std::uint64_t> parent_push_digest_;
  /// Last digest pushed per destination child and (origin, kind)
  /// stream; entries for a child are dropped when it leaves or fails.
  std::map<sim::NodeId,
           std::map<std::pair<sim::NodeId, std::uint8_t>, std::uint64_t>>
      pushed_digests_;

  // Joiner-side state machine.
  struct JoinState {
    bool active = false;
    sim::NodeId current = 0;             // server being asked
    std::vector<sim::NodeId> descended;  // descent stack (for backtrack)
    std::vector<sim::NodeId> excluded;   // branches found unwilling
    std::vector<sim::NodeId> fallbacks;  // rejoin candidates still untried
    std::uint64_t request_seq = 0;       // matches replies to requests
    util::UniqueFunction<void(bool)> on_complete;
  };
  JoinState join_;

  // Last root-children list heard from the root (election contacts).
  std::vector<sim::NodeId> root_children_;
  sim::Time last_parent_heartbeat_ = 0;

  // Non-empty when this node became the root of a partition after its
  // rejoin attempts failed; the maintenance timer keeps retrying these
  // contacts so partitions re-merge once connectivity returns.
  std::vector<sim::NodeId> recovery_candidates_;

  // --- Concurrent query serving ---------------------------------------------
  struct QueuedQuery {
    std::shared_ptr<RoadsClient> client;
    QueryMode mode = QueryMode::kStart;
    obs::TraceContext trace;  // the arrival's context, resumed on dequeue
  };
  /// Queries currently holding an evaluation slot (admission on).
  std::size_t active_queries_ = 0;
  /// Bounded inbound queue; arrivals past query_queue_limit are shed.
  std::deque<QueuedQuery> query_queue_;
  QueryResultCache query_cache_;
  /// Fold of child-summary + replica digests and the container
  /// versions it was taken at (the empty fold at version 0). The
  /// digests are memoized, so the fold only saves the walk over
  /// children and replicas; each refold counts as
  /// roads.query.cache.invalidate.
  mutable std::uint64_t state_stamp_fold_ = util::Fnv1a{}.value();
  mutable std::uint64_t stamp_child_version_ = 0;
  mutable std::uint64_t stamp_replica_version_ = 0;
};

/// Sends `reply` from `from` to the client: the redirect reply now and,
/// when results are pending, the result batch after its service time
/// under a `service` span. Servers and remote owners' agents share it.
void send_query_reply(sim::Network& network, sim::NodeId from,
                      const std::shared_ptr<RoadsClient>& client,
                      std::shared_ptr<const CachedReply> reply);

}  // namespace roads::core

// RoadsClient: one in-flight query, driven the way the paper describes
// (§III-A Searching): the client sends the query to a start server,
// receives a redirect list, queries those servers in parallel, and so
// on until no new redirects appear. The client records the arrival time
// at every server it contacts — query latency is the time the query
// reached the last server — plus, in result-collection mode (Fig. 11),
// the time the final record batch arrived back.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "record/query.h"
#include "record/record.h"
#include "roads/dispatch.h"
#include "roads/owner.h"
#include "sim/network.h"
#include "sim/time.h"

namespace roads::core {

class RoadsClient : public std::enable_shared_from_this<RoadsClient> {
 public:
  struct Result {
    bool complete = false;
    sim::Time issued_at = 0;
    /// When the query reached the last server it had to contact — the
    /// paper's query-latency metric endpoint.
    sim::Time last_arrival = 0;
    /// When the last result batch arrived (result-collection mode).
    sim::Time last_result_at = 0;
    std::size_t servers_contacted = 0;
    std::size_t matching_records = 0;
    std::vector<record::ResourceRecord> records;
    /// Servers that shed this query with an overload reply (admission
    /// control). The query still completes — shed branches simply go
    /// unsearched, like timed-out servers.
    std::size_t sheds = 0;
    /// True when the start server itself shed the query: the query
    /// received no service at all (rejected, not merely degraded).
    bool rejected = false;

    sim::Time forwarding_latency() const { return last_arrival - issued_at; }
    sim::Time response_time() const { return last_result_at - issued_at; }
  };

  /// `location` is the node whose network coordinates the client uses
  /// (the paper initiates each query "from a randomly chosen node").
  RoadsClient(sim::Network& network, Directory& directory,
              record::Query query, sim::NodeId location,
              Principal principal = kAnonymous, bool collect_results = false);

  /// Search-scope control (§III-C): limit the search to the branch of
  /// the start server's ancestor `levels` up — 1 covers the parent's
  /// branch (start subtree + siblings), 2 the grandparent's, and so
  /// on. kUnlimitedScope (default) searches the whole hierarchy.
  static constexpr unsigned kUnlimitedScope = 255;
  void set_scope(unsigned levels) { scope_ = levels; }
  unsigned scope() const { return scope_; }

  const record::Query& query() const { return query_; }
  Principal principal() const { return principal_; }
  sim::NodeId location() const { return location_; }
  bool collect_results() const { return collect_results_; }

  /// Issues the query to the start server (usually the client's own
  /// attachment point; with the replication overlay any server works).
  void start(sim::NodeId start_server);

  bool done() const { return result_.complete; }
  const Result& result() const { return result_; }
  /// Every server/owner node this query contacted.
  const std::set<sim::NodeId>& visited() const { return visited_; }
  /// Root span id of this query's causal tree — every event and span
  /// of the query carries it as `trace` (0 when the network has no
  /// trace buffer attached).
  std::uint64_t span() const { return span_; }

  // --- Server-side callbacks (invoked at message delivery time) ---

  /// The query message reached `server` now.
  void on_arrival(sim::NodeId server);

  /// Redirect reply: follow-up targets, how many records matched
  /// locally, and whether a result transfer will follow.
  void on_reply(sim::NodeId server,
                const std::vector<std::pair<sim::NodeId, QueryMode>>& targets,
                std::size_t local_matches, bool results_pending);

  /// A result batch arrived from `server`. Only the first batch from a
  /// server counts: a duplicated query or result message delivers the
  /// same batch again.
  void on_results(sim::NodeId server,
                  const std::vector<record::ResourceRecord>& records);

  /// `server` shed the query (admission-control overload reply). The
  /// client stops waiting on it, like a timeout but explicit and
  /// immediate.
  void on_overload(sim::NodeId server);

 private:
  void visit(sim::NodeId target, QueryMode mode);
  void on_reply_timeout(sim::NodeId server);
  void check_complete();
  void trace_span(obs::TraceKind kind, sim::NodeId node, double value = 0.0);

  sim::Network& network_;
  Directory& directory_;
  record::Query query_;
  sim::NodeId location_;
  Principal principal_;
  bool collect_results_;

  unsigned scope_ = kUnlimitedScope;
  std::set<sim::NodeId> visited_;
  std::set<sim::NodeId> replied_;
  std::size_t outstanding_replies_ = 0;
  std::set<sim::NodeId> results_expected_;
  std::set<sim::NodeId> results_arrived_;
  bool started_ = false;
  sim::NodeId start_server_ = 0;
  std::uint64_t span_ = 0;
  Result result_;
};

}  // namespace roads::core

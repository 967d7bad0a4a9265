// Federation: the top-level facade of the ROADS library.
//
// Owns the simulation substrate (clock, delay space, network), every
// RoadsServer, and the agents standing in for remote resource owners.
// Downstream users build a federation, attach owners with records,
// start it, let summaries stabilize, and run queries:
//
//   core::Federation fed({.seed = 42});
//   auto& root = fed.add_server();
//   auto& s1 = fed.add_server();
//   auto owner = fed.add_owner(s1.id(), core::ExportMode::kDetailedRecords);
//   owner->store().insert(record);
//   s1.attach_owner(owner, core::ExportMode::kDetailedRecords);  // or use
//   fed.start();                                                 // helpers
//   fed.stabilize();
//   auto outcome = fed.run_query(query, s1.id());
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hierarchy/topology.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/span_tree.h"
#include "obs/trace.h"
#include "record/query.h"
#include "record/schema.h"
#include "roads/client.h"
#include "roads/config.h"
#include "roads/dispatch.h"
#include "roads/owner.h"
#include "roads/server.h"
#include "sim/delay_space.h"
#include "sim/network.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace roads::core {

struct FederationParams {
  RoadsConfig config;
  record::Schema schema = record::Schema::uniform_numeric(16);
  std::uint64_t seed = 1;
  sim::DelaySpaceParams delay;
  /// Bound on the structured trace ring (message, maintenance and
  /// query-span events); 0 disables tracing entirely.
  std::size_t trace_capacity = 8192;
  /// Engine shards (= worker threads) the simulation runs on. 1 is the
  /// sequential engine; N > 1 shards the nodes across N engines driven
  /// in parallel under conservative time windows — bit-identical
  /// results (see sim/sharded_simulator.h), but tracing is forced off
  /// because shard engines do not carry trace contexts.
  std::size_t threads = 1;
  /// Enables continuous handler-level profiling (obs/profile.h): every
  /// engine attributes per-event self-time to handler categories.
  /// Works at any thread count (unlike tracing) and never perturbs
  /// event order or digests.
  bool profile = false;
};

/// Everything a caller wants to know about one resolved query.
struct QueryOutcome {
  bool complete = false;
  /// Forwarding latency (§V metric 1): query issue to last server
  /// contact, in milliseconds.
  double latency_ms = 0.0;
  /// Total response time (Fig. 11): issue to last result batch.
  double response_ms = 0.0;
  /// Query-forwarding bytes this query added (§V metric 3).
  std::uint64_t query_bytes = 0;
  std::uint64_t result_bytes = 0;
  std::size_t servers_contacted = 0;
  std::size_t matching_records = 0;
  /// Nodes the query visited (load analysis, e.g. root-bottleneck
  /// measurements in the overlay ablation).
  std::vector<sim::NodeId> contacted;
  std::vector<record::ResourceRecord> records;
  /// Admission-control accounting: servers that shed this query with
  /// an overload reply, and whether the start server itself did (the
  /// query got no service at all).
  std::size_t sheds = 0;
  bool rejected = false;
  /// Root span id of the query's causal tree (0 when tracing is off).
  std::uint64_t trace_id = 0;
  /// Critical-path decomposition of the forwarding latency / total
  /// response time (set when tracing is on; response only in
  /// result-collection mode with at least one result batch). The four
  /// phases sum to the corresponding measured latency exactly.
  std::optional<obs::CriticalPath> forwarding_path;
  std::optional<obs::CriticalPath> response_path;
};

class Federation : public Directory {
 public:
  explicit Federation(FederationParams params);
  ~Federation() override;

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  // --- Construction --------------------------------------------------------

  /// Adds one server. The first becomes the root; later servers run the
  /// join protocol (descending from the root) to completion. Throws if
  /// a join fails outright.
  RoadsServer& add_server();
  /// Convenience: adds n servers.
  void add_servers(std::size_t n);

  /// Creates a resource owner. Co-located owners share the attachment
  /// server's machine; remote ones get their own point in the delay
  /// space and answer summary-mode queries themselves. The returned
  /// owner's store starts empty — fill it, then call attach_owner on
  /// the server (or use this overload's auto-attach).
  std::shared_ptr<ResourceOwner> add_owner(sim::NodeId attach_to,
                                           ExportMode mode,
                                           bool colocated = true);

  /// Starts every server's timers (summary refresh + maintenance).
  void start();

  /// Runs the simulation long enough for summaries to propagate
  /// everywhere: `rounds` refresh periods (default: tree height + 2).
  void stabilize(std::size_t rounds = 0);

  /// Runs the clock forward by `duration`.
  void advance(sim::Time duration);

  /// Pauses/resumes every server's periodic summary refresh (see
  /// RoadsServer::set_refresh_paused).
  void set_refresh_paused(bool paused);

  /// Installs a fault-injection plan on the network (see sim/fault.h)
  /// and hooks its crash/restart windows into the protocol layer: a
  /// crash window calls RoadsServer::fail() and a restart window calls
  /// RoadsServer::restart() seeded at the lowest-id alive server.
  /// Applying an empty plan heals the message-level faults.
  void apply_fault_plan(const sim::FaultPlan& plan);

  // --- Queries --------------------------------------------------------------

  /// Resolves a query starting at `start_server`, running the simulator
  /// until the query completes. Collects records when the config's
  /// collect_results is set.
  QueryOutcome run_query(const record::Query& query, sim::NodeId start_server,
                         Principal principal = kAnonymous);

  /// Scope-limited variant (§III-C): searches only the branch of the
  /// start server's ancestor `scope_levels` up — 0 is the start
  /// server's own subtree, 1 adds its siblings' branches, and so on.
  QueryOutcome run_query_scoped(const record::Query& query,
                                sim::NodeId start_server,
                                unsigned scope_levels,
                                Principal principal = kAnonymous);

  // --- Open-loop serving (load harness) ------------------------------------

  /// Starts a query WITHOUT driving the engine: the client resolves as
  /// the caller steps the simulation. The open-loop load harness
  /// schedules arrivals itself, keeps many clients in flight, and
  /// polls done(); call note_query_complete exactly once per finished
  /// client to fold it into the visit/latency accounting run_query
  /// performs inline.
  std::shared_ptr<RoadsClient> issue_query(const record::Query& query,
                                           sim::NodeId start_server,
                                           Principal principal = kAnonymous);

  /// Folds a finished open-loop client into query_visits_ and the
  /// completed-count / latency instruments (no-op counters for
  /// incomplete clients; visits always count).
  void note_query_complete(const RoadsClient& client);

  /// Advances the engine by at most `limit` events and returns how many
  /// executed (0 = drained). Sequential engine steps directly; sharded
  /// engines micro-step in exact global order, so — unlike advance() —
  /// stepping is safe while open-loop clients are in flight at any
  /// thread count, and bit-identical across them.
  std::size_t step(std::size_t limit) { return drive_steps(limit); }

  // --- Introspection ----------------------------------------------------------

  std::size_t server_count() const { return servers_.size(); }
  std::vector<RoadsServer*> servers();
  /// Snapshot of the live parent/child structure. Only includes
  /// servers; owner nodes are not part of the hierarchy.
  hierarchy::Topology topology() const;

  /// Per-server query visit counts (index == NodeId), accumulated
  /// across every run_query — the raw series behind the Timeline's
  /// query-load imbalance probe (max/mean + Gini).
  const std::vector<std::uint64_t>& query_visits() const {
    return query_visits_;
  }

  sim::Simulator& simulator() { return simulator_; }
  sim::Network& network() { return network_; }
  /// Mutable delay space: the scenario engine layers slow/asymmetric
  /// link overrides onto it (sim::DelaySpace::set_link_extra) — extras
  /// only ever add latency, so the sharded engine's min_latency()
  /// lookahead stays conservative.
  sim::DelaySpace& delay_space() { return delay_space_; }
  /// Non-null when FederationParams::threads > 1.
  sim::ShardedSimulator* sharded() { return sharded_.get(); }
  /// Aggregated engine statistics — identical to simulator().stats()
  /// sequentially; in sharded mode, counts summed across every shard
  /// and max_depth the federation-wide queue high-watermark
  /// (sum-of-shards maxima).
  sim::Simulator::Stats engine_stats() const;
  /// Per-window queue-depth watermark across every engine (the
  /// telemetry probes' view of take_window_max_depth).
  std::size_t take_window_max_depth();
  /// Shared instrument registry: network channel meters plus every
  /// server/overlay instrument of this federation.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Structured event trace; nullptr when trace_capacity was 0.
  obs::TraceBuffer* trace() { return trace_.get(); }
  const obs::TraceBuffer* trace() const { return trace_.get(); }
  /// Handler-level profiler; nullptr unless FederationParams::profile.
  obs::Profiler* profiler() { return profiler_.get(); }
  const record::Schema& schema() const { return schema_; }
  const RoadsConfig& config() const { return config_; }
  RoadsConfig& mutable_config() { return config_; }
  util::Rng& rng() { return rng_; }

  // --- Directory ---------------------------------------------------------------
  RoadsServer& server(sim::NodeId id) override;
  QueryTarget& query_target(sim::NodeId id) override;

 private:
  /// Adapter letting a remote ResourceOwner answer query messages.
  class OwnerAgent;

  /// Route the drive loops through the sharded coordinator when one is
  /// attached (events then live in N heaps, not simulator_'s alone).
  std::size_t drive_steps(std::size_t limit);
  void drive_until(sim::Time deadline);

  RoadsConfig config_;
  record::Schema schema_;
  util::Rng rng_;
  obs::MetricsRegistry metrics_;           // must outlive network_
  std::unique_ptr<obs::TraceBuffer> trace_;  // likewise
  std::unique_ptr<obs::Profiler> profiler_;  // engines hold sink pointers
  sim::Simulator simulator_;
  sim::DelaySpace delay_space_;
  sim::Network network_;
  std::unique_ptr<sim::ShardedSimulator> sharded_;  // threads > 1 only

  std::vector<std::unique_ptr<RoadsServer>> servers_;  // index == NodeId
  std::vector<std::uint64_t> query_visits_;            // index == NodeId
  std::vector<std::unique_ptr<OwnerAgent>> owner_agents_;
  std::vector<QueryTarget*> targets_;  // index == NodeId
  std::optional<sim::NodeId> root_;
  record::OwnerId next_owner_id_ = 1;
  bool started_ = false;
};

}  // namespace roads::core

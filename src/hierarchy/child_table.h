// ChildTable: the state a server keeps per child — branch statistics
// for join steering, the last-heartbeat timestamp for failure
// detection, and the latest branch summary. Pure bookkeeping; the
// message-driven protocol around it lives in roads::core::RoadsServer.
// summary_version() moves in every mutator that adds, replaces or
// drops a summary, so a reader caching something derived from the
// summaries (the server's query-cache stamp) needs no other signal.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "hierarchy/branch_stats.h"
#include "sim/delay_space.h"
#include "sim/time.h"
#include "summary/resource_summary.h"

namespace roads::hierarchy {

using sim::NodeId;
using SummaryPtr = std::shared_ptr<const summary::ResourceSummary>;

class ChildTable {
 public:
  struct Entry {
    NodeId id = 0;
    BranchStats stats;
    sim::Time last_heartbeat = 0;
    /// When this child's branch summary was last refreshed (0 = never);
    /// heartbeats renew liveness without refreshing summary content, so
    /// the two stamps age independently.
    sim::Time last_summary = 0;
  };

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool has(NodeId child) const { return entries_.count(child) > 0; }

  /// Registers a child; duplicate adds are an error.
  void add(NodeId child, sim::Time now);
  /// Drops a child and its summary; returns false if absent.
  bool remove(NodeId child);
  /// Drops every child (a restarting server forgets its subtree).
  void clear();

  /// Updates branch stats from a bottom-up aggregation message.
  void update_stats(NodeId child, const BranchStats& stats);
  /// Records a heartbeat arrival.
  void update_heartbeat(NodeId child, sim::Time now);
  /// Stores the branch summary `child` refreshed at `now`, replacing
  /// the previous one; ignored for an unknown child (a stale update
  /// from a removed child).
  void set_summary(NodeId child, SummaryPtr summary, sim::Time now);
  /// Resets every child's heartbeat clock (when failure detection
  /// starts, so children added earlier are not instantly expired).
  void touch_all(sim::Time now);

  const Entry& entry(NodeId child) const;
  std::vector<NodeId> ids() const;
  std::vector<BranchStats> all_stats() const;

  /// Latest branch summary per child that has sent one, in child-id
  /// order.
  const std::map<NodeId, SummaryPtr>& summaries() const { return summaries_; }
  /// Moves whenever a summary is added, replaced or dropped.
  std::uint64_t summary_version() const { return summary_version_; }

  /// Children whose last heartbeat is older than `deadline`.
  std::vector<NodeId> expired(sim::Time deadline) const;

  /// Staleness ages (now - last_summary) of children that have sent a
  /// summary at least once, in child-id order — the child-summary
  /// staleness probe's raw series.
  std::vector<sim::Time> summary_ages(sim::Time now) const;

  /// This node's own branch stats given its children.
  BranchStats aggregate() const;

 private:
  std::map<NodeId, Entry> entries_;  // ordered for deterministic iteration
  std::map<NodeId, SummaryPtr> summaries_;
  std::uint64_t summary_version_ = 0;
};

}  // namespace roads::hierarchy

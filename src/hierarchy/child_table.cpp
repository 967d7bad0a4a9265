#include "hierarchy/child_table.h"

#include <stdexcept>

namespace roads::hierarchy {

void ChildTable::add(NodeId child, sim::Time now) {
  auto [it, inserted] =
      entries_.emplace(child, Entry{child, BranchStats{}, now});
  if (!inserted) {
    throw std::logic_error("ChildTable: duplicate child");
  }
}

bool ChildTable::remove(NodeId child) {
  if (entries_.erase(child) == 0) return false;
  if (summaries_.erase(child) > 0) ++summary_version_;
  return true;
}

void ChildTable::clear() {
  entries_.clear();
  if (summaries_.empty()) return;
  summaries_.clear();
  ++summary_version_;
}

void ChildTable::update_stats(NodeId child, const BranchStats& stats) {
  auto it = entries_.find(child);
  if (it == entries_.end()) return;  // stale message from a removed child
  it->second.stats = stats;
}

void ChildTable::update_heartbeat(NodeId child, sim::Time now) {
  auto it = entries_.find(child);
  if (it == entries_.end()) return;
  it->second.last_heartbeat = now;
}

void ChildTable::set_summary(NodeId child, SummaryPtr summary,
                             sim::Time now) {
  auto it = entries_.find(child);
  if (it == entries_.end()) return;
  it->second.last_summary = now;
  summaries_[child] = std::move(summary);
  ++summary_version_;
}

void ChildTable::touch_all(sim::Time now) {
  for (auto& [_, entry] : entries_) entry.last_heartbeat = now;
}

const ChildTable::Entry& ChildTable::entry(NodeId child) const {
  auto it = entries_.find(child);
  if (it == entries_.end()) {
    throw std::out_of_range("ChildTable: unknown child");
  }
  return it->second;
}

std::vector<NodeId> ChildTable::ids() const {
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  for (const auto& [id, _] : entries_) out.push_back(id);
  return out;
}

std::vector<BranchStats> ChildTable::all_stats() const {
  std::vector<BranchStats> out;
  out.reserve(entries_.size());
  for (const auto& [_, e] : entries_) out.push_back(e.stats);
  return out;
}

std::vector<NodeId> ChildTable::expired(sim::Time deadline) const {
  std::vector<NodeId> out;
  for (const auto& [id, e] : entries_) {
    if (e.last_heartbeat < deadline) out.push_back(id);
  }
  return out;
}

std::vector<sim::Time> ChildTable::summary_ages(sim::Time now) const {
  std::vector<sim::Time> out;
  for (const auto& [_, e] : entries_) {
    if (e.last_summary == 0) continue;  // never sent one yet
    out.push_back(now >= e.last_summary ? now - e.last_summary : 0);
  }
  return out;
}

BranchStats ChildTable::aggregate() const { return aggregate_branch_stats(all_stats()); }

}  // namespace roads::hierarchy

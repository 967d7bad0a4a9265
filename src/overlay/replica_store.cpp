#include "overlay/replica_store.h"

#include <algorithm>
#include <optional>

namespace roads::overlay {

void ReplicaStore::bind_metrics(obs::MetricsRegistry& registry) {
  put_us_ = &registry.histogram("overlay.put_us");
  match_us_ = &registry.histogram("overlay.match_us");
}

void ReplicaStore::put(const ReplicaSpec& spec, SummaryPtr summary,
                       sim::Time now) {
  std::optional<obs::ScopedTimer> timer;
  if (put_us_) timer.emplace(*put_us_);
  auto& slot = replicas_[{spec.origin, spec.kind}];
  slot.spec = spec;
  slot.summary = std::move(summary);
  slot.received_at = now;
  ++version_;
}

const Replica* ReplicaStore::find(NodeId origin, SummaryKind kind) const {
  auto it = replicas_.find({origin, kind});
  return it == replicas_.end() ? nullptr : &it->second;
}

bool ReplicaStore::has(NodeId origin, SummaryKind kind) const {
  return find(origin, kind) != nullptr;
}

std::size_t ReplicaStore::sweep(sim::Time now) {
  std::size_t removed = 0;
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if (now - it->second.received_at > ttl_) {
      it = replicas_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (removed > 0) ++version_;
  return removed;
}

void ReplicaStore::clear() {
  if (replicas_.empty()) return;
  replicas_.clear();
  ++version_;
}

std::vector<const Replica*> ReplicaStore::all() const {
  std::vector<const Replica*> out;
  out.reserve(replicas_.size());
  for (const auto& [_, r] : replicas_) out.push_back(&r);
  return out;
}

std::vector<sim::Time> ReplicaStore::ages(sim::Time now) const {
  std::vector<sim::Time> out;
  out.reserve(replicas_.size());
  for (const auto& [_, r] : replicas_) {
    out.push_back(now >= r.received_at ? now - r.received_at : 0);
  }
  return out;
}

sim::Time ReplicaStore::max_age(sim::Time now) const {
  sim::Time max = 0;
  for (const auto& [_, r] : replicas_) {
    if (now >= r.received_at) max = std::max(max, now - r.received_at);
  }
  return max;
}

std::vector<const Replica*> ReplicaStore::matching(
    const record::Query& query, SummaryKind kind) const {
  std::optional<obs::ScopedTimer> timer;
  if (match_us_) timer.emplace(*match_us_);
  std::vector<const Replica*> out;
  for (const auto& [key, r] : replicas_) {
    if (key.second != kind) continue;
    if (r.summary && r.summary->matches(query)) out.push_back(&r);
  }
  return out;
}

std::uint64_t ReplicaStore::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [_, r] : replicas_) {
    if (r.summary) total += r.summary->wire_size();
  }
  return total;
}

}  // namespace roads::overlay

// Digest-keyed query-result caching for concurrent query serving.
//
// A server's reply to a query is a pure function of (query, mode,
// client scope/principal/collect flag) and the summary state the
// evaluation reads: its own store, the summary-only attachments, the
// child branch summaries and the overlay replicas. The FNV content
// digests make that state cheap to fingerprint: each summary memoizes
// its digest, so the state stamp folds stored values and never rehashes
// a slot. The child table and the replica store version their own
// contents, and the server refolds their digests only when a version
// has moved. A cached reply is keyed on (query digest, folded state
// stamp), so any push, sweep or record mutation that moves a digest
// moves the stamp and every key with it. The result cache keeps only
// the current stamp's entries: a lookup or insert under a new stamp
// drops everything stored under the old one. The stamp folds the store
// version, which never decreases, so an older entry could only hit
// again if the store stayed untouched and every child and replica
// digest returned to an earlier value; keeping older states' entries
// for that chance would fill the cache to its bound with entries that
// almost never hit.
//
// The result cache is bounded by entries AND bytes with LRU eviction
// (a Zipf-heavy tail of one-off queries cannot grow it unboundedly);
// the negative cache remembers summary-prune misses (false-positive
// redirects) under a TTL so fp storms — e.g. the scenario engine's
// staleness attacks — are absorbed without occupying evaluation slots.
// Its TTL and bound already retire dead keys, so it is not scoped to a
// stamp.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "record/record.h"
#include "roads/messages.h"
#include "sim/network.h"
#include "sim/time.h"

namespace roads::core {

/// Everything a server computes for one query after admission: the
/// redirect target list, local match accounting, and (collect mode)
/// the matching records plus their precomputed retrieval service time.
/// The evaluation builds it once; the cache stores that same object,
/// and every send of it, cold or cached, bumps the counters it names
/// (false positive, overlay shortcuts).
struct CachedReply {
  std::vector<std::pair<sim::NodeId, QueryMode>> targets;
  std::size_t local_matches = 0;
  bool results_pending = false;
  std::vector<record::ResourceRecord> records;
  std::uint64_t record_bytes = 0;
  /// Retrieval service time (µs) for the result batch (collect mode).
  sim::Time service_us = 0;
  bool false_positive = false;
  std::uint64_t shortcut_hits = 0;

  /// Approximate resident footprint, charged against the byte bound.
  std::uint64_t bytes() const {
    return 64 + 16 * static_cast<std::uint64_t>(targets.size()) +
           record_bytes;
  }
};

/// LRU cache of CachedReply keyed by the 64-bit (query, state) key,
/// holding only the entries of one state stamp, the one the key folds.
/// Entries are shared immutable objects so a hit being served stays
/// valid even if the entry is evicted before the reply fires.
/// Deterministic: eviction follows the recency list, never the hash
/// table's iteration order.
class QueryResultCache {
 public:
  QueryResultCache(std::size_t max_entries, std::uint64_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  /// Looks up `key` under state `stamp`, refreshing its recency on a
  /// hit. A stamp other than the entries' drops them all first.
  std::shared_ptr<const CachedReply> find(std::uint64_t key,
                                          std::uint64_t stamp);

  /// Inserts (or replaces) `key` under state `stamp`, after dropping
  /// every entry of another stamp, then evicts least-recently-used
  /// entries until both bounds hold. Returns how many were evicted;
  /// entries dropped for their stamp do not count.
  std::size_t insert(std::uint64_t key, std::uint64_t stamp,
                     std::shared_ptr<const CachedReply> reply);

  std::size_t size() const { return lru_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  void clear();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const CachedReply> reply;
  };
  /// Clears the cache unless its entries were stored under `stamp`.
  void scope_to(std::uint64_t stamp);

  std::size_t max_entries_;
  std::uint64_t max_bytes_;
  std::uint64_t stamp_ = 0;  // the stamp every entry was stored under
  std::uint64_t bytes_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

/// Bounded TTL'd set of (query, state) keys that evaluated to a
/// summary-prune miss. Entries expire `ttl` after their last refresh;
/// expiry and capacity eviction both walk the insertion-order list, so
/// behaviour is independent of hash iteration order.
class NegativeCache {
 public:
  NegativeCache(std::size_t max_entries, sim::Time ttl)
      : max_entries_(max_entries), ttl_(ttl) {}

  /// True when `key` is present and fresh at `now` (prunes expired
  /// entries from the front of the age list on the way).
  bool contains(std::uint64_t key, sim::Time now);

  /// Remembers `key` at `now` (refreshes an existing entry).
  void insert(std::uint64_t key, sim::Time now);

  std::size_t size() const { return index_.size(); }
  void clear();

 private:
  void expire(sim::Time now);

  std::size_t max_entries_;
  sim::Time ttl_;
  std::list<std::pair<std::uint64_t, sim::Time>> order_;  // oldest first
  std::unordered_map<std::uint64_t,
                     std::list<std::pair<std::uint64_t, sim::Time>>::iterator>
      index_;
};

}  // namespace roads::core

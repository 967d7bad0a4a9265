// ResourceSummary: the condensed representation of a set of resource
// records that an owner exports instead of the records themselves
// (§III-B). One AttributeSummary per searchable schema attribute; a
// query matches iff every one of its predicates matches the
// corresponding attribute summary (conjunction over all queried
// dimensions, which is what lets ROADS confine search scope using every
// dimension at once). A summary only grows (add, merge) or empties
// (clear); nothing subtracts, so the summary of changed records is
// rebuilt (RecordStore::summarize, when the store's version moved).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "record/query.h"
#include "record/record.h"
#include "record/schema.h"
#include "summary/attribute_summary.h"

namespace roads::summary {

class ResourceSummary {
 public:
  ResourceSummary() = default;

  /// Empty summary with one slot per searchable attribute of `schema`.
  ResourceSummary(const record::Schema& schema, const SummaryConfig& config);

  /// Summarizes a record set column by column (AttributeSummary::add_all).
  static ResourceSummary of_records(
      const record::Schema& schema, const SummaryConfig& config,
      const std::vector<record::ResourceRecord>& records);

  /// Summary of `record_count` records from slots built column by
  /// column: one per searchable attribute of `schema`, in schema order.
  /// Throws std::invalid_argument on a slot count mismatch.
  static ResourceSummary of_slots(const record::Schema& schema,
                                  std::vector<AttributeSummary> slots,
                                  std::uint64_t record_count);

  bool initialized() const { return !slots_.empty(); }
  bool empty() const;
  /// Number of records folded in (via add/merge).
  std::uint64_t record_count() const { return record_count_; }

  /// Folds one record's searchable values in.
  void add(const record::ResourceRecord& record);

  /// Aggregates every initialized summary in `others` into this one
  /// (histogram counter addition, set union, Bloom OR) — the bottom-up
  /// merge of the hierarchy. Each histogram slot merges all inputs in
  /// one pass and packs once. An uninitialized summary takes the first
  /// input's schema. Throws std::invalid_argument on a slot count
  /// mismatch, before anything changes.
  void merge(std::span<const ResourceSummary* const> others);
  /// merge() with one input.
  void merge(const ResourceSummary& other);
  void clear();

  /// 64-bit content digest over record count and every slot's payload:
  /// equal content gives equal digests, so the refresh protocol can
  /// suppress pushes of summaries that recomputed to the same state.
  /// Memoized: the first call walks every slot, later calls return the
  /// stored value until a mutator changes the content. Safe to call
  /// concurrently on a summary no thread is mutating.
  std::uint64_t digest() const;

  /// Conservative query evaluation: true iff EVERY predicate matches its
  /// attribute summary. No false negatives w.r.t. the summarized records.
  bool matches(const record::Query& query) const;

  /// Summary wire footprint: 16-byte header plus attribute payloads.
  /// Constant in the number of summarized records for histogram/Bloom
  /// slots — the property the paper's overhead equations rest on.
  std::uint64_t wire_size() const;

  /// Per-attribute access for tests; `attribute` is a schema index.
  const AttributeSummary& slot(std::size_t attribute) const;

 private:
  /// slot_index_[schema attr] = index into slots_, or npos if the
  /// attribute is not searchable.
  static constexpr std::size_t kNotSearchable = ~std::size_t{0};
  /// Sets slot_index_ for `schema`; returns the slot count.
  std::size_t index_slots(const record::Schema& schema);
  std::vector<std::size_t> slot_index_;
  std::vector<AttributeSummary> slots_;
  std::uint64_t record_count_ = 0;

  /// digest()'s memo: the FNV value, or kNone while stale (a summary
  /// whose digest happens to be kNone just rehashes on every call).
  /// Copies and moves start stale, and assignment leaves the target
  /// stale. Atomic because digest() is const and one shared summary is
  /// hashed from several engine threads at once; relaxed ordering
  /// suffices since the memo publishes nothing but its own value.
  class DigestMemo {
   public:
    static constexpr std::uint64_t kNone = 0;
    DigestMemo() = default;
    DigestMemo(const DigestMemo&) noexcept {}
    DigestMemo& operator=(const DigestMemo&) noexcept {
      reset();
      return *this;
    }
    std::uint64_t get() const {
      return value_.load(std::memory_order_relaxed);
    }
    void set(std::uint64_t value) const {
      value_.store(value, std::memory_order_relaxed);
    }
    void reset() { set(kNone); }

   private:
    mutable std::atomic<std::uint64_t> value_{kNone};
  };
  DigestMemo digest_memo_;
};

}  // namespace roads::summary

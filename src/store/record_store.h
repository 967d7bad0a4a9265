// RecordStore: a columnar in-memory resource database.
//
// This substitutes for the DB2 backend of the paper's prototype (§V-B):
// each ROADS server attaches one, uses it to answer detailed queries at
// the leaves, and derives export summaries from it. Records are held
// column by column: one value vector per schema attribute (doubles for
// numeric attributes, strings for categorical ones) beside a per-slot
// id and owner. A query runs one predicate at a time over a selection
// vector of slots, and a summary is built one column at a time, so
// neither touches a ResourceRecord; records are rebuilt only for get()
// and snapshot(). Erasing moves the last slot into the hole, so the
// columns never hold dead slots. The store keeps no change log: a
// caller that holds a summary compares version() with the version it
// summarized at and calls summarize() again when it moved.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "record/query.h"
#include "record/record.h"
#include "record/schema.h"
#include "summary/resource_summary.h"

namespace roads::store {

/// Statistics from one query evaluation, used by the service-time model
/// (index probes are cheap, candidate filtering dominates).
struct QueryStats {
  std::size_t candidates_scanned = 0;
  std::size_t matches = 0;
  bool used_index = false;
};

class RecordStore {
 public:
  /// Below this size a query is priced as a full scan; at or above it,
  /// as an index lookup on its most selective range predicate (see
  /// query()). The threshold shapes QueryStats, never the results.
  static constexpr std::size_t kIndexThreshold = 2048;

  explicit RecordStore(record::Schema schema);

  const record::Schema& schema() const { return schema_; }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Inserts a record; throws std::invalid_argument if it does not
  /// conform to the schema or duplicates an existing id. By value: a
  /// caller that moves records in frees each one here, so a bulk load
  /// never holds its whole batch beside the columns.
  void insert(record::ResourceRecord record);

  /// Inserts every record of `other`, in ascending id order, without
  /// building them: the same as inserting other.snapshot() one by one,
  /// except that the columns are sized to the final count first.
  /// Throws std::invalid_argument when the schemas differ in shape or an
  /// id is already stored (before inserting anything).
  void insert_all(const RecordStore& other);

  /// Removes by id; returns false when absent.
  bool erase(record::RecordId id);

  /// Replaces the record with the same id (update-in-place for dynamic
  /// resources); throws when the id is unknown.
  void update(record::ResourceRecord record);

  bool contains(record::RecordId id) const;
  /// The stored record, rebuilt from the columns; throws
  /// std::out_of_range when the id is unknown.
  record::ResourceRecord get(record::RecordId id) const;
  /// get(id).wire_size(), read off the columns without building the
  /// record; throws std::out_of_range when the id is unknown.
  std::uint64_t wire_size(record::RecordId id) const;

  /// All records matching the conjunctive query, in ascending id order.
  /// `stats` reports the candidates a database would have filtered:
  /// every record below kIndexThreshold; at or above it, the fewest
  /// values in [lo, hi] over the query's range predicates on searchable
  /// numeric attributes (an index range scan), or every record when no
  /// predicate qualifies. Counting costs a large store one pass per such
  /// predicate, so it is done only when `stats` is given.
  std::vector<record::RecordId> query(const record::Query& q) const;
  std::vector<record::RecordId> query(const record::Query& q,
                                      QueryStats* stats) const;

  /// Match count without materializing ids.
  std::size_t count_matching(const record::Query& q) const;

  /// Builds the export summary of the current contents, one pass per
  /// searchable column.
  summary::ResourceSummary summarize(
      const summary::SummaryConfig& config) const;

  /// Monotonic mutation counter; unchanged version means unchanged
  /// contents, so callers can skip refresh work entirely.
  std::uint64_t version() const { return version_; }

  /// Every stored record, ascending id order.
  std::vector<record::ResourceRecord> snapshot() const;

  /// Total wire size of all stored records — the "storage overhead" a
  /// server pays for holding raw records (Table I comparisons).
  std::uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  /// One attribute's values by slot: `numbers` for a numeric attribute,
  /// `categories` for a categorical one; the other stays empty.
  struct Column {
    std::vector<double> numbers;
    std::vector<std::string> categories;
  };

  std::uint32_t slot_of(record::RecordId id) const;
  /// Slots in ascending id order.
  std::vector<std::uint32_t> id_order() const;
  record::ResourceRecord record_at(std::uint32_t slot) const;
  std::uint64_t wire_size_at(std::uint32_t slot) const;
  /// Writes the record's values into the columns at `slot`; append
  /// when `slot == size()`.
  void store_values(std::uint32_t slot, const record::ResourceRecord& record);

  /// Matching slots in no particular order; fills `stats` if given.
  std::vector<std::uint32_t> select(const record::Query& q,
                                    QueryStats* stats) const;
  /// Narrows `selection` to the slots that satisfy `p` (every slot
  /// when `all`), with Predicate::matches semantics.
  void filter(const record::Predicate& p,
              std::vector<std::uint32_t>& selection, bool all) const;
  /// True for the predicates an index could answer: ranges on
  /// searchable numeric attributes.
  bool indexable(const record::Predicate& p) const;

  record::Schema schema_;
  std::vector<Column> columns_;          // one per schema attribute
  std::vector<record::RecordId> ids_;    // by slot
  std::vector<record::OwnerId> owners_;  // by slot
  std::unordered_map<record::RecordId, std::uint32_t> slots_;  // id -> slot

  std::uint64_t version_ = 0;
  std::uint64_t stored_bytes_ = 0;  // maintained on insert/erase/update
};

}  // namespace roads::store

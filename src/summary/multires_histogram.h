// Multi-resolution histogram summary (§III-B cites Ganesan et al.'s
// multi-resolution summarization [11] as an alternative aggregation
// method).
//
// Where the fixed histogram spends m buckets regardless of content,
// this summary is sparse and adaptive: it starts at a fine resolution,
// its wire size is proportional to the number of NON-EMPTY buckets,
// and when aggregation pushes the non-empty count past a budget it
// coarsens (halves the resolution, pairwise-adding counters). Leaf
// summaries of localized data stay small AND precise; high-level
// branch summaries gracefully lose resolution instead of growing —
// matching the multi-resolution intuition that detail should fade
// with aggregation distance.
//
// The conservative-evaluation contract is the same as Histogram's: a
// range matches iff some overlapped bucket is non-empty, so there are
// never false negatives, and coarsening can only add false positives.
#pragma once

#include <cstdint>
#include <vector>

#include "util/hash.h"

namespace roads::summary {

class MultiResHistogram {
 public:
  MultiResHistogram() = default;

  /// Starts at `finest_buckets` resolution (rounded up to a power of
  /// two) over [domain_min, domain_max); coarsens whenever more than
  /// `nonempty_budget` buckets are occupied.
  MultiResHistogram(std::size_t finest_buckets, std::size_t nonempty_budget,
                    double domain_min, double domain_max);

  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t nonempty_budget() const { return budget_; }
  std::size_t nonempty_count() const;
  double domain_min() const { return domain_min_; }
  double domain_max() const { return domain_max_; }
  bool empty() const { return total_ == 0; }
  std::uint64_t total() const { return total_; }

  void add(double value);
  void clear();

  /// Aggregation: aligns both operands to the coarser resolution, adds
  /// counters, then coarsens further if the budget is exceeded.
  /// Operands must share domain and budget.
  void merge(const MultiResHistogram& other);

  /// Conservative range test (no false negatives); false when
  /// !(lo <= hi), which includes a NaN bound.
  bool matches_range(double lo, double hi) const;
  /// Upper bound on summarized values in [lo, hi]; 0 when !(lo <= hi).
  std::uint64_t count_in_range(double lo, double hi) const;

  /// Sparse wire encoding: 24-byte header + 6 bytes per non-empty
  /// bucket (4-byte index + 2-byte capped count... representative
  /// serialization; counts above 64Ki are escape-coded, modeled as a
  /// flat 6 bytes here).
  std::uint64_t wire_size() const;

  /// Folds the full content (geometry + counters) into a digest.
  void hash_into(util::Fnv1a& h) const;

  /// Halves the resolution once (exposed for tests; merge() calls it
  /// as needed).
  void coarsen();

  bool operator==(const MultiResHistogram& other) const = default;

 private:
  std::size_t bucket_index(double value) const;

  void recount_nonempty();

  double domain_min_ = 0.0;
  double domain_max_ = 1.0;
  std::size_t budget_ = 64;
  std::uint64_t total_ = 0;
  std::size_t nonempty_ = 0;
  std::vector<std::uint32_t> counts_;
};

}  // namespace roads::summary

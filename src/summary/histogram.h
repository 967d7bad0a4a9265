// Equi-width histogram summary for numeric attributes (§III-B).
//
// A histogram partitions the attribute's domain into a fixed number of
// buckets, each holding a count of values that fell in it. Aggregation
// of two histograms is element-wise counter addition, which is exactly
// how branch summaries combine as they flow up the ROADS hierarchy. A
// range predicate matches when any overlapped bucket is non-empty —
// a conservative (no false negative, possible false positive) test.
//
// The buckets are grouped into at most 64 equal blocks, and an inline
// occupancy word keeps one bit per block: bit b is set iff some counter
// in block b is non-zero. The range test reads the word for the blocks
// a range covers whole and scans counters only in its two partial edge
// blocks, and only when their bit is set. Counters never decrease, so
// add and merge set bits and only clear clears them. The word is
// derived from the counters: the digest and wire size never read it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/hash.h"

namespace roads::summary {

class Histogram {
 public:
  Histogram() = default;

  /// Buckets partition [domain_min, domain_max); values are clamped into
  /// the domain so boundary noise cannot drop data silently.
  Histogram(std::size_t buckets, double domain_min, double domain_max);

  std::size_t bucket_count() const { return counts_.size(); }
  double domain_min() const { return domain_min_; }
  double domain_max() const { return domain_max_; }
  bool empty() const { return total_ == 0; }
  std::uint64_t total() const { return total_; }
  std::uint64_t bucket(std::size_t index) const { return counts_.at(index); }

  /// Defined here, with bucket_index, so that summary builds inline it:
  /// out of line, the word update made a full rebuild ~29% slower.
  void add(double value) {
    const std::size_t index = bucket_index(value);
    ++counts_[index];
    occupied_ |= std::uint64_t{1} << (index >> block_shift_);
    ++total_;
  }
  void clear();

  /// Element-wise counter addition; both histograms must share bucket
  /// count and domain (throws std::invalid_argument otherwise).
  void merge(const Histogram& other);

  /// Conservative range test: true iff some bucket overlapping
  /// [lo, hi] has a non-zero count. False when !(lo <= hi), which
  /// includes a NaN bound.
  bool matches_range(double lo, double hi) const;

  /// Upper bound on how many summarized values lie in [lo, hi]
  /// (counts of all overlapped buckets; 0 when !(lo <= hi)). Used for
  /// search-scope estimation and the ablation benches.
  std::uint64_t count_in_range(double lo, double hi) const;

  /// Index of the bucket a value falls in (after clamping).
  std::size_t bucket_index(double value) const {
    if (counts_.empty()) throw std::logic_error("Histogram: uninitialized");
    const double clamped = std::clamp(value, domain_min_, domain_max_);
    auto index =
        static_cast<std::size_t>((clamped - domain_min_) / bucket_width_);
    return std::min(index, counts_.size() - 1);
  }

  /// Wire footprint: 16-byte domain header + 4 bytes per bucket counter.
  std::uint64_t wire_size() const;

  /// Folds the full content (geometry + counters) into a digest.
  void hash_into(util::Fnv1a& h) const;

  /// The word is a function of the counters, so comparing it adds no
  /// inequality that the counters do not.
  bool operator==(const Histogram& other) const = default;

 private:
  /// True iff a counter in [begin, end), a range inside one block, is
  /// non-zero; reads no counter when the block's bit is clear.
  bool any_in_block(std::size_t begin, std::size_t end) const;

  double domain_min_ = 0.0;
  double domain_max_ = 1.0;
  double bucket_width_ = 1.0;
  std::uint64_t total_ = 0;
  std::vector<std::uint32_t> counts_;
  /// Bit b: some counter in buckets [b << block_shift_, (b + 1) <<
  /// block_shift_) is non-zero.
  std::uint64_t occupied_ = 0;
  /// log2 of the block size: the smallest that gives at most 64 blocks.
  std::uint8_t block_shift_ = 0;
};

}  // namespace roads::summary

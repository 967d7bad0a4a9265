// Equi-width histogram summary for numeric attributes (§III-B).
//
// A histogram partitions the attribute's domain into a fixed number of
// buckets, each holding a count of values that fell in it. Aggregation
// of two histograms is element-wise counter addition, which is exactly
// how branch summaries combine as they flow up the ROADS hierarchy. A
// range predicate matches when any overlapped bucket is non-empty —
// a conservative (no false negative, possible false positive) test.
//
// The paper's form, m counters, is the wire form and the size model.
// In memory a histogram keeps only its non-zero counters, behind two
// levels of occupancy bits. The buckets are grouped into at most 64
// equal blocks, and an inline word keeps bit b set iff some counter in
// block b is non-zero. Below it, one bit per bucket is set iff that
// bucket's counter is non-zero, and the non-zero counters follow in the
// same heap block, packed in bucket order: bucket i's counter is the
// rank(i)-th, rank(i) being the number of set bucket bits below i. The
// form is canonical, so equal contents compare and digest equal however
// they were built.
//
// The range test reads the block word for the blocks a range covers
// whole and the bucket bits of its two partial edge blocks; it reads no
// counter. Builds and merges count into a per-thread dense scratch of m
// counters and pack once. Counters never decrease, so add and merge
// set bits and only clear clears them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/hash.h"

namespace roads::summary {

class Histogram {
 public:
  Histogram() = default;

  /// Buckets partition [domain_min, domain_max); values are clamped into
  /// the domain so boundary noise cannot drop data silently. Throws
  /// std::invalid_argument unless 0 < buckets < 2^32 and the domain is
  /// non-empty.
  Histogram(std::size_t buckets, double domain_min, double domain_max);

  std::size_t bucket_count() const { return buckets_; }
  double domain_min() const { return domain_min_; }
  double domain_max() const { return domain_max_; }
  bool empty() const { return total_ == 0; }
  std::uint64_t total() const { return total_; }
  /// Counter of bucket `index`; throws std::out_of_range past the last.
  std::uint64_t bucket(std::size_t index) const;

  /// One value: an insert into the packed counters, O(non-zero). Only
  /// record-at-a-time builds call it; summary builds use add_all.
  void add(double value);
  /// A whole column at once: the same as add() on each value in order,
  /// counted into the scratch and packed once.
  void add_all(std::span<const double> values);
  void clear();

  /// Element-wise counter addition of every initialized histogram in
  /// `others` into this one, in one pass: each is added into the
  /// scratch, the bits and block words are ORed, and the sum is packed
  /// once. An uninitialized histogram takes the inputs' geometry. All
  /// must share bucket count and domain (throws std::invalid_argument
  /// otherwise, before anything changes).
  void merge(std::span<const Histogram* const> others);
  /// merge() with one input.
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
    if (buckets_ == 0) throw std::logic_error("Histogram: uninitialized");
    return index_in(value, domain_min_, domain_max_, bucket_width_,
                    buckets_ - 1);
  }

  /// Wire footprint: 16-byte domain header + 4 bytes per bucket counter,
  /// zero or not.
  std::uint64_t wire_size() const;

  /// Folds the full content into a digest: the geometry, then the
  /// bucket bits and the packed counters through Fnv1a::add_lanes.
  void hash_into(util::Fnv1a& h) const;

  /// The form is canonical (a bucket's bit is set exactly when its
  /// counter is non-zero, and the block word follows the bits), so
  /// comparing members compares contents.
  bool operator==(const Histogram& other) const = default;

 private:
  class Scratch;

  /// bucket_index over a geometry held in locals: add_all's counter
  /// stores could alias the members, which would then be reloaded per
  /// value.
  static std::size_t index_in(double value, double lo, double hi,
                              double width, std::size_t last) {
    const double clamped = std::clamp(value, lo, hi);
    return std::min(static_cast<std::size_t>((clamped - lo) / width), last);
  }

  /// Number of 64-bucket bit words.
  std::size_t words() const { return (std::size_t{buckets_} + 63) / 64; }
  /// Bit word w: bit j is set iff bucket 64w + j's counter is non-zero.
  std::uint64_t bit_word(std::size_t w) const {
    return data_[2 * w] | std::uint64_t{data_[2 * w + 1]} << 32;
  }
  /// The packed non-zero counters, after the bits.
  const std::uint32_t* counters() const { return data_.data() + 2 * words(); }
  /// Number of set bucket bits in [begin, end).
  std::size_t set_bits(std::size_t begin, std::size_t end) const;
  /// True iff a counter in [begin, end), a range inside one block, is
  /// non-zero; reads no bucket bit when the block's bit is clear.
  bool any_in_block(std::size_t begin, std::size_t end) const;

  double domain_min_ = 0.0;
  double domain_max_ = 1.0;
  double bucket_width_ = 1.0;
  std::uint64_t total_ = 0;
  /// Bit b: some counter in buckets [b << block_shift_, (b + 1) <<
  /// block_shift_) is non-zero.
  std::uint64_t occupied_ = 0;
  std::uint32_t buckets_ = 0;
  /// log2 of the block size: the smallest that gives at most 64 blocks.
  std::uint8_t block_shift_ = 0;
  /// One heap block: the bucket bits as 2 * words() 32-bit halves, bit
  /// i % 32 of data_[i / 32] set iff bucket i's counter is non-zero;
  /// then the non-zero counters in bucket order, one per set bit. Empty
  /// exactly when total_ is 0, so an empty histogram holds no heap
  /// block. Kept last, so the fields the range test reads share the
  /// object's start.
  std::vector<std::uint32_t> data_;
};

}  // namespace roads::summary

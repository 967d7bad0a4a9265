#include "summary/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roads::summary {

namespace {

/// Bits [0, n) of a 64-bit word, for n <= 64.
std::uint64_t low_bits(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

}  // namespace

Histogram::Histogram(std::size_t buckets, double domain_min, double domain_max)
    : domain_min_(domain_min), domain_max_(domain_max) {
  if (buckets == 0) {
    throw std::invalid_argument("Histogram: bucket count must be positive");
  }
  if (!(domain_min < domain_max)) {
    throw std::invalid_argument("Histogram: empty domain");
  }
  bucket_width_ = (domain_max - domain_min) / static_cast<double>(buckets);
  counts_.assign(buckets, 0);
  while (((buckets - 1) >> block_shift_) >= 64) ++block_shift_;
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  occupied_ = 0;
}

void Histogram::merge(const Histogram& other) {
  if (counts_.empty()) {
    *this = other;
    return;
  }
  if (other.counts_.empty()) return;
  if (counts_.size() != other.counts_.size() ||
      domain_min_ != other.domain_min_ || domain_max_ != other.domain_max_) {
    throw std::invalid_argument("Histogram: merging incompatible histograms");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  occupied_ |= other.occupied_;
}

bool Histogram::any_in_block(std::size_t begin, std::size_t end) const {
  if (begin >= end || ((occupied_ >> (begin >> block_shift_)) & 1) == 0) {
    return false;
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (counts_[i] != 0) return true;
  }
  return false;
}

bool Histogram::matches_range(double lo, double hi) const {
  if (counts_.empty() || total_ == 0 || !(lo <= hi)) return false;
  if (hi < domain_min_ || lo > domain_max_) return false;
  const std::size_t first = bucket_index(std::max(lo, domain_min_));
  const std::size_t end = bucket_index(std::min(hi, domain_max_)) + 1;
  // Blocks [whole_begin, whole_end) lie inside [first, end) and answer
  // from the word; only the partial blocks around them read counters.
  const std::size_t block = std::size_t{1} << block_shift_;
  const std::size_t whole_begin = (first + block - 1) >> block_shift_;
  const std::size_t whole_end = end >> block_shift_;
  if (whole_begin < whole_end &&
      (occupied_ & low_bits(whole_end) & ~low_bits(whole_begin)) != 0) {
    return true;
  }
  const std::size_t head_end = std::min(end, whole_begin << block_shift_);
  return any_in_block(first, head_end) ||
         any_in_block(std::max(head_end, whole_end << block_shift_), end);
}

std::uint64_t Histogram::count_in_range(double lo, double hi) const {
  if (counts_.empty() || total_ == 0 || !(lo <= hi)) return 0;
  if (hi < domain_min_ || lo > domain_max_) return 0;
  const std::size_t first = bucket_index(std::max(lo, domain_min_));
  const std::size_t last = bucket_index(std::min(hi, domain_max_));
  std::uint64_t count = 0;
  for (std::size_t i = first; i <= last; ++i) count += counts_[i];
  return count;
}

std::uint64_t Histogram::wire_size() const {
  return 16 + 4 * counts_.size();
}

void Histogram::hash_into(util::Fnv1a& h) const {
  h.add(domain_min_);
  h.add(domain_max_);
  h.add(static_cast<std::uint64_t>(counts_.size()));
  h.add_lanes(counts_);
}

}  // namespace roads::summary

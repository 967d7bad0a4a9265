#include "summary/multires_histogram.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace roads::summary {

MultiResHistogram::MultiResHistogram(std::size_t finest_buckets,
                                     std::size_t nonempty_budget,
                                     double domain_min, double domain_max)
    : domain_min_(domain_min), domain_max_(domain_max),
      budget_(nonempty_budget) {
  if (finest_buckets == 0 || nonempty_budget == 0) {
    throw std::invalid_argument(
        "MultiResHistogram: buckets and budget must be positive");
  }
  if (!(domain_min < domain_max)) {
    throw std::invalid_argument("MultiResHistogram: empty domain");
  }
  counts_.assign(std::bit_ceil(finest_buckets), 0);
}

std::size_t MultiResHistogram::bucket_index(double value) const {
  const double clamped = std::clamp(value, domain_min_, domain_max_);
  const double width =
      (domain_max_ - domain_min_) / static_cast<double>(counts_.size());
  const auto index =
      static_cast<std::size_t>((clamped - domain_min_) / width);
  return std::min(index, counts_.size() - 1);
}

std::size_t MultiResHistogram::nonempty_count() const { return nonempty_; }

void MultiResHistogram::recount_nonempty() {
  nonempty_ = 0;
  for (const auto c : counts_) {
    if (c != 0) ++nonempty_;
  }
}

void MultiResHistogram::add(double value) {
  if (counts_.empty()) {
    throw std::logic_error("MultiResHistogram: uninitialized");
  }
  auto& slot = counts_[bucket_index(value)];
  if (slot == 0) ++nonempty_;
  ++slot;
  ++total_;
  if (nonempty_ > budget_ && counts_.size() > 1) coarsen();
}

void MultiResHistogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  nonempty_ = 0;
}

void MultiResHistogram::coarsen() {
  if (counts_.size() <= 1) return;
  std::vector<std::uint32_t> half(counts_.size() / 2);
  for (std::size_t i = 0; i < half.size(); ++i) {
    half[i] = counts_[2 * i] + counts_[2 * i + 1];
  }
  counts_ = std::move(half);
  recount_nonempty();
}

void MultiResHistogram::merge(const MultiResHistogram& other) {
  if (counts_.empty()) {
    *this = other;
    return;
  }
  if (other.counts_.empty()) return;
  if (domain_min_ != other.domain_min_ || domain_max_ != other.domain_max_ ||
      budget_ != other.budget_) {
    throw std::invalid_argument(
        "MultiResHistogram: merging incompatible histograms");
  }
  // Align to the coarser resolution.
  MultiResHistogram rhs = other;
  while (counts_.size() > rhs.counts_.size()) coarsen();
  while (rhs.counts_.size() > counts_.size()) rhs.coarsen();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += rhs.counts_[i];
  }
  total_ += rhs.total_;
  recount_nonempty();
  // Keep the sparse encoding within budget.
  while (nonempty_ > budget_ && counts_.size() > 1) coarsen();
}

bool MultiResHistogram::matches_range(double lo, double hi) const {
  return count_in_range(lo, hi) > 0;
}

std::uint64_t MultiResHistogram::count_in_range(double lo, double hi) const {
  if (counts_.empty() || total_ == 0 || !(lo <= hi)) return 0;
  if (hi < domain_min_ || lo > domain_max_) return 0;
  const std::size_t first = bucket_index(std::max(lo, domain_min_));
  const std::size_t last = bucket_index(std::min(hi, domain_max_));
  std::uint64_t count = 0;
  for (std::size_t i = first; i <= last; ++i) count += counts_[i];
  return count;
}

std::uint64_t MultiResHistogram::wire_size() const {
  return 24 + 6 * nonempty_count();
}

void MultiResHistogram::hash_into(util::Fnv1a& h) const {
  h.add(domain_min_);
  h.add(domain_max_);
  h.add(static_cast<std::uint64_t>(counts_.size()));
  h.add_lanes(counts_);
}

}  // namespace roads::summary

// Tests for the summary module: histograms, value sets, Bloom filters
// and the composite ResourceSummary — including the key conservative-
// evaluation property (no false negatives) the whole ROADS search
// correctness rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "record/query.h"
#include "summary/attribute_summary.h"
#include "summary/bloom_filter.h"
#include "summary/histogram.h"
#include "summary/resource_summary.h"
#include "summary/value_set.h"
#include "util/hash.h"
#include "util/rng.h"

namespace roads::summary {
namespace {

using record::AttributeValue;
using record::Predicate;
using record::Query;

// --- Histogram ---

TEST(Histogram, AddAndBucketCounts) {
  Histogram h(10, 0.0, 1.0);
  h.add(0.05);
  h.add(0.05);
  h.add(0.95);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(Histogram, ClampsOutOfDomainValues) {
  Histogram h(10, 0.0, 1.0);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(Histogram, DomainMaxFallsInLastBucket) {
  Histogram h(4, 0.0, 1.0);
  h.add(1.0);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, MatchesRangeConservative) {
  Histogram h(10, 0.0, 1.0);
  h.add(0.55);
  EXPECT_TRUE(h.matches_range(0.5, 0.6));
  // Bucket granularity false positive: 0.55 lives in [0.5, 0.6), so a
  // query for [0.51, 0.52] overlaps that bucket and matches.
  EXPECT_TRUE(h.matches_range(0.51, 0.52));
  // But a range over empty buckets cannot match.
  EXPECT_FALSE(h.matches_range(0.0, 0.49));
  EXPECT_FALSE(h.matches_range(0.61, 1.0));
}

TEST(Histogram, NoFalseNegativesProperty) {
  util::Rng rng(17);
  Histogram h(37, 0.0, 1.0);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.uniform01());
    h.add(values.back());
  }
  for (int trial = 0; trial < 500; ++trial) {
    const double lo = rng.uniform01();
    const double hi = lo + rng.uniform(0.0, 1.0 - lo);
    bool any = false;
    for (const double v : values) {
      if (v >= lo && v <= hi) any = true;
    }
    if (any) {
      EXPECT_TRUE(h.matches_range(lo, hi))
          << "false negative for [" << lo << "," << hi << "]";
    }
  }
}

TEST(Histogram, RangeOutsideDomain) {
  Histogram h(10, 0.0, 1.0);
  h.add(0.5);
  EXPECT_FALSE(h.matches_range(2.0, 3.0));
  EXPECT_FALSE(h.matches_range(-3.0, -2.0));
  EXPECT_FALSE(h.matches_range(0.8, 0.2));  // inverted
}

TEST(Histogram, MergeAddsCounters) {
  Histogram a(10, 0.0, 1.0);
  Histogram b(10, 0.0, 1.0);
  a.add(0.1);
  b.add(0.1);
  b.add(0.9);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.bucket(1), 2u);
  EXPECT_EQ(a.bucket(9), 1u);
}

TEST(Histogram, MergeIncompatibleThrows) {
  Histogram a(10, 0.0, 1.0);
  Histogram b(20, 0.0, 1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  Histogram c(10, 0.0, 2.0);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, MergeWithUninitialized) {
  Histogram a;
  Histogram b(10, 0.0, 1.0);
  b.add(0.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 1u);
  Histogram c(10, 0.0, 1.0);
  c.merge(Histogram());  // no-op
  EXPECT_EQ(c.total(), 0u);
}

TEST(Histogram, CountInRange) {
  Histogram h(10, 0.0, 1.0);
  for (double v = 0.05; v < 1.0; v += 0.1) h.add(v);  // one per bucket
  EXPECT_EQ(h.count_in_range(0.0, 1.0), 10u);
  EXPECT_EQ(h.count_in_range(0.0, 0.35), 4u);
}

TEST(Histogram, WireSizeIndependentOfContent) {
  Histogram h(100, 0.0, 1.0);
  const auto empty_size = h.wire_size();
  for (int i = 0; i < 10000; ++i) h.add(0.5);
  EXPECT_EQ(h.wire_size(), empty_size);
  EXPECT_EQ(empty_size, 16u + 400u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Histogram(10, 1.0, 1.0), std::invalid_argument);
}

// --- Histogram digest ---
//
// hash_into folds the counters through eight independent FNV lanes and
// a tail for the last bucket_count % 8 counters. Every counter, in
// every lane and in the tail, must reach the digest. The digest here
// is the histogram's own fold: ResourceSummary::digest also folds the
// record count, which would hide a dropped counter.

std::uint64_t histogram_digest(const Histogram& h) {
  util::Fnv1a fnv;
  h.hash_into(fnv);
  return fnv.value();
}

TEST(Histogram, DigestSeesEveryCounter) {
  // Every tail length 0-7, below one lane round, at one and at many.
  const std::size_t kBuckets[] = {1,  2,  3,  7,  8,    9,    15,  16,
                                  17, 63, 64, 65, 1000, 1001, 1023};
  for (const std::size_t buckets : kBuckets) {
    SCOPED_TRACE(std::to_string(buckets) + " buckets");
    // Unit-width buckets: bucket b holds b + 0.5.
    const Histogram empty(buckets, 0.0, static_cast<double>(buckets));
    const auto centre = [](std::size_t b) {
      return static_cast<double>(b) + 0.5;
    };

    // One value in one bucket digests unlike the empty histogram and
    // unlike one value in any other bucket.
    std::set<std::uint64_t> seen = {histogram_digest(empty)};
    for (std::size_t b = 0; b < buckets; ++b) {
      Histogram one = empty;
      one.add(centre(b));
      ASSERT_EQ(one.bucket(b), 1u);
      EXPECT_TRUE(seen.insert(histogram_digest(one)).second) << "bucket " << b;
    }

    // Moving one count out of every bucket in turn, into the next
    // bucket (the next lane) and into the one 8 on (the same lane, one
    // step later), changes the digest of a histogram holding one value
    // per bucket.
    if (buckets == 1) continue;
    Histogram full = empty;
    for (std::size_t b = 0; b < buckets; ++b) full.add(centre(b));
    const auto full_digest = histogram_digest(full);
    for (std::size_t from = 0; from < buckets; ++from) {
      for (const std::size_t hop : {std::size_t{1}, std::size_t{8}}) {
        const std::size_t to = (from + hop) % buckets;
        if (to == from) continue;
        Histogram moved = empty;
        for (std::size_t b = 0; b < buckets; ++b) {
          if (b != from) moved.add(centre(b));
        }
        moved.add(centre(to));
        ASSERT_EQ(moved.total(), full.total());
        EXPECT_NE(histogram_digest(moved), full_digest)
            << "one count moved from bucket " << from << " to " << to;
      }
    }
  }
}

// --- Histogram occupancy word ---
//
// matches_range answers from a per-block occupancy word and reads the
// bucket bits of partial edge blocks only; count_in_range sums the
// packed counters of every overlapped bucket. After each mutation the
// two must agree on every probed range.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Buckets per block: the smallest power of two giving at most 64.
std::size_t block_size(std::size_t buckets) {
  std::size_t block = 1;
  while ((buckets + block - 1) / block > 64) block *= 2;
  return block;
}

/// Ranges over a [0, 1] histogram of `buckets` buckets: whole blocks,
/// partial blocks, ranges across block edges, single buckets, random
/// ranges, the whole domain, outside it, infinite and inverted bounds.
std::vector<std::pair<double, double>> probe_ranges(std::size_t buckets,
                                                    util::Rng& rng) {
  const double width = 1.0 / static_cast<double>(buckets);
  const auto centre = [&](std::size_t i) {
    return (static_cast<double>(i) + 0.5) * width;
  };
  const auto any_bucket = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(buckets) - 1));
  };
  std::vector<std::pair<double, double>> out = {
      {0.0, 1.0},   {-kInf, kInf}, {-kInf, 0.0},  {1.0, kInf},
      {1.5, 2.0},   {-2.0, -0.5},  {-kInf, -1.0}, {2.0, kInf},
      {0.7, 0.3},   {kInf, -kInf}, {centre(buckets - 1), centre(0)}};
  const std::size_t block = block_size(buckets);
  const std::size_t blocks = (buckets + block - 1) / block;
  for (int k = 0; k < 6; ++k) {
    const std::size_t b =
        k < 2 ? static_cast<std::size_t>(k) * (blocks - 1)
              : any_bucket() / block;
    const std::size_t begin = b * block;
    const std::size_t last = std::min(buckets, begin + block) - 1;
    out.emplace_back(centre(begin), centre(last));
    out.emplace_back(static_cast<double>(begin) * width,
                     static_cast<double>(last + 1) * width);
    out.emplace_back(centre(begin), centre(begin));
    if (last > begin) {
      out.emplace_back(centre(begin + 1), centre(last));
      out.emplace_back(centre(begin), centre(last - 1));
    }
    if (begin > 0) out.emplace_back(centre(begin - 1), centre(last));
    if (last + 1 < buckets) {
      out.emplace_back(centre(last), centre(last + 1));
      out.emplace_back(centre(begin + 1),
                       centre(std::min(buckets - 1, last + block)));
    }
  }
  for (int k = 0; k < 8; ++k) {
    auto i = any_bucket();
    auto j = any_bucket();
    if (i > j) std::swap(i, j);
    out.emplace_back(centre(i), centre(j));
  }
  return out;
}

TEST(Histogram, OccupancyWordAgreesWithTheCountersUnderEveryMutator) {
  const std::size_t kBuckets[] = {1,    7,    63,   64,   65,   100, 1000,
                                  1023, 1024, 1025, 4000, 4096, 5000};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (const std::size_t buckets : kBuckets) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(buckets) + " buckets");
      util::Rng rng(seed * 7919 + buckets);
      const double width = 1.0 / static_cast<double>(buckets);
      // Values cluster on a few buckets, so most blocks stay empty
      // until a clear; a quarter land anywhere, out of the domain
      // (clamped) included.
      std::vector<double> hot;
      for (int k = 0; k < 3; ++k) {
        hot.push_back(
            (static_cast<double>(rng.uniform_int(
                 0, static_cast<std::int64_t>(buckets) - 1)) +
             0.5) *
            width);
      }
      const auto value = [&] {
        if (rng.bernoulli(0.25)) return rng.uniform(-0.5, 1.5);
        return hot[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      };

      Histogram h(buckets, 0.0, 1.0);
      std::vector<double> held;  // every value h summarizes
      for (int step = 0; step < 80; ++step) {
        const auto op = rng.uniform_int(0, 99);
        if (op < 50) {
          held.push_back(value());
          h.add(held.back());
        } else if (op < 65) {
          Histogram other(buckets, 0.0, 1.0);
          for (auto n = rng.uniform_int(0, 5); n > 0; --n) {
            held.push_back(value());
            other.add(held.back());
          }
          if (rng.bernoulli(0.2)) {  // into an uninitialized histogram
            Histogram fresh;
            fresh.merge(h);
            h = fresh;
          }
          h.merge(other);
        } else if (op < 73) {
          h.clear();
          held.clear();
        } else if (op < 87) {
          const Histogram copy = h;
          h.clear();
          h = copy;
        } else {
          Histogram moved = std::move(h);
          h = Histogram();
          h = std::move(moved);
        }
        ASSERT_EQ(h.total(), held.size()) << "step " << step;
        for (const auto& [lo, hi] : probe_ranges(buckets, rng)) {
          ASSERT_EQ(h.matches_range(lo, hi), h.count_in_range(lo, hi) > 0)
              << "step " << step << " [" << lo << ", " << hi << "]";
        }
      }
    }
  }
}

// --- Histogram against a dense model ---
//
// A histogram keeps only its non-zero counters, packed in bucket order
// behind a block word and one bit per bucket, and builds and merges go
// through a dense scratch with a 64-counter path for full bit words. A
// plain vector of m counters is the reference: after every mutator
// each bucket, the total and every probed count_in_range and
// matches_range must agree with it, and the histogram must equal (and
// digest like) one built from the model's counts in one add_all.

/// m counters over [0, 1], updated the obvious way.
class DenseModel {
 public:
  explicit DenseModel(std::size_t buckets)
      : geometry_(buckets, 0.0, 1.0), counts_(buckets, 0) {}

  void add(double value) { ++counts_[geometry_.bucket_index(value)]; }
  void add(const DenseModel& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }
  void clear() { std::fill(counts_.begin(), counts_.end(), 0); }

  /// Compares every observable of `h` with the model's.
  void expect_agrees(const Histogram& h, util::Rng& rng,
                     bool canonical) const {
    const std::size_t buckets = counts_.size();
    ASSERT_EQ(h.bucket_count(), buckets);
    std::vector<std::uint64_t> prefix(buckets + 1, 0);
    for (std::size_t i = 0; i < buckets; ++i) {
      ASSERT_EQ(h.bucket(i), counts_[i]) << "bucket " << i;
      prefix[i + 1] = prefix[i] + counts_[i];
    }
    ASSERT_EQ(h.total(), prefix[buckets]);
    for (const auto& [lo, hi] : probe_ranges(buckets, rng)) {
      std::uint64_t expected = 0;
      if (lo <= hi && hi >= 0.0 && lo <= 1.0) {
        const auto first = geometry_.bucket_index(std::max(lo, 0.0));
        const auto last = geometry_.bucket_index(std::min(hi, 1.0));
        expected = prefix[last + 1] - prefix[first];
      }
      ASSERT_EQ(h.count_in_range(lo, hi), expected)
          << "[" << lo << ", " << hi << "]";
      ASSERT_EQ(h.matches_range(lo, hi), expected > 0)
          << "[" << lo << ", " << hi << "]";
    }
    if (!canonical) return;
    std::vector<double> values;
    for (std::size_t i = 0; i < buckets; ++i) {
      values.insert(values.end(), counts_[i], centre(i));
    }
    Histogram rebuilt(buckets, 0.0, 1.0);
    rebuilt.add_all(values);
    ASSERT_TRUE(h == rebuilt);
    ASSERT_EQ(histogram_digest(h), histogram_digest(rebuilt));
  }

  double centre(std::size_t i) const {
    return (static_cast<double>(i) + 0.5) /
           static_cast<double>(counts_.size());
  }

 private:
  Histogram geometry_;  // bucket_index only
  std::vector<std::uint64_t> counts_;
};

TEST(Histogram, AgreesWithADenseModelUnderEveryMutator) {
  const std::size_t kBuckets[] = {1,    7,    63,   64,   65,   100, 1000,
                                  1023, 1024, 1025, 4000, 4096, 5000};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (const std::size_t buckets : kBuckets) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(buckets) + " buckets");
      util::Rng rng(seed * 104729 + buckets);
      const DenseModel shape(buckets);
      const auto any_bucket = [&] {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buckets) - 1));
      };
      std::vector<double> hot;
      for (int k = 0; k < 3; ++k) hot.push_back(shape.centre(any_bucket()));
      // A batch of values: a few hot buckets, values anywhere (out of
      // the domain included), or one value per bucket over a run that
      // fills a 64-bucket bit word, all but one bucket of it, or more.
      const auto batch = [&] {
        std::vector<double> values;
        const auto kind = rng.uniform_int(0, 2);
        if (kind == 0) {
          for (auto n = rng.uniform_int(1, 6); n > 0; --n) {
            values.push_back(hot[static_cast<std::size_t>(
                rng.uniform_int(0, 2))]);
          }
        } else if (kind == 1) {
          for (auto n = rng.uniform_int(1, 40); n > 0; --n) {
            values.push_back(rng.uniform(-0.5, 1.5));
          }
        } else {
          const std::size_t lengths[] = {1, 63, 64, 65, 128};
          const auto length = lengths[rng.uniform_int(0, 4)];
          std::size_t start = any_bucket();
          if (rng.bernoulli(0.7)) {  // at or one past a bit word's start
            start = start / 64 * 64 +
                    static_cast<std::size_t>(rng.uniform_int(0, 1));
          }
          for (std::size_t b = start; b < std::min(buckets, start + length);
               ++b) {
            values.push_back(shape.centre(b));
          }
        }
        return values;
      };
      // A histogram of one batch, built by add or by add_all; one in
      // five is empty and one in ten uninitialized.
      const auto input = [&](DenseModel& model) {
        if (rng.bernoulli(0.1)) return Histogram();
        Histogram h(buckets, 0.0, 1.0);
        if (rng.bernoulli(0.2)) return h;
        const auto values = batch();
        for (const double v : values) model.add(v);
        if (rng.bernoulli(0.5)) {
          h.add_all(values);
        } else {
          for (const double v : values) h.add(v);
        }
        return h;
      };

      Histogram h(buckets, 0.0, 1.0);
      DenseModel model(buckets);
      for (int step = 0; step < 40; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const auto op = rng.uniform_int(0, 99);
        if (op < 20) {
          for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
            const double v = rng.bernoulli(0.5) ? hot[0] : rng.uniform01();
            model.add(v);
            h.add(v);
          }
        } else if (op < 40) {
          const auto values = batch();
          for (const double v : values) model.add(v);
          h.add_all(values);
        } else if (op < 52) {  // pairwise, either way round
          DenseModel part(buckets);
          auto other = input(part);
          model.add(part);
          if (rng.bernoulli(0.2)) {  // into an uninitialized histogram
            Histogram fresh;
            fresh.merge(h);
            h = fresh;
          }
          if (rng.bernoulli(0.5) && other.bucket_count() != 0) {
            other.merge(h);
            h = std::move(other);
          } else {
            h.merge(other);
          }
        } else if (op < 70) {  // k-way over 0, 1 or 8 inputs
          const std::size_t k[] = {0, 1, 8};
          std::vector<Histogram> inputs;
          for (auto n = k[rng.uniform_int(0, 2)]; n > 0; --n) {
            DenseModel part(buckets);
            inputs.push_back(input(part));
            model.add(part);
          }
          std::vector<const Histogram*> others;
          for (const auto& i : inputs) others.push_back(&i);
          if (rng.bernoulli(0.2)) {  // the base among the inputs
            others.insert(others.begin() + static_cast<std::ptrdiff_t>(
                                               rng.uniform_int(0, 1) *
                                               others.size()),
                          &h);
            Histogram fresh;
            fresh.merge(others);
            h = std::move(fresh);
          } else {
            h.merge(others);
          }
        } else if (op < 76) {
          h.clear();
          model.clear();
        } else if (op < 88) {
          const Histogram copy = h;
          h.clear();
          h = copy;
        } else {
          Histogram moved = std::move(h);
          h = Histogram();
          h = std::move(moved);
        }
        model.expect_agrees(h, rng, step % 8 == 7 || step == 39);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// --- MultiResHistogram ---

TEST(MultiResHistogram, AddAndRangeMatch) {
  MultiResHistogram h(64, 16, 0.0, 1.0);
  h.add(0.3);
  h.add(0.7);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_TRUE(h.matches_range(0.25, 0.35));
  EXPECT_TRUE(h.matches_range(0.65, 0.75));
  EXPECT_FALSE(h.matches_range(0.45, 0.55));
}

TEST(MultiResHistogram, RoundsBucketsToPowerOfTwo) {
  MultiResHistogram h(100, 16, 0.0, 1.0);
  EXPECT_EQ(h.bucket_count(), 128u);
}

TEST(MultiResHistogram, CoarsensWhenBudgetExceeded) {
  MultiResHistogram h(64, 4, 0.0, 1.0);
  // Spread values across many buckets to exceed the 4-bucket budget.
  for (int i = 0; i < 16; ++i) h.add(i / 16.0);
  EXPECT_LE(h.nonempty_count(), 4u);
  EXPECT_LT(h.bucket_count(), 64u);
  EXPECT_EQ(h.total(), 16u);  // counts preserved across coarsening
}

TEST(MultiResHistogram, LocalizedDataStaysFine) {
  MultiResHistogram h(64, 8, 0.0, 1.0);
  for (int i = 0; i < 100; ++i) h.add(0.5 + 0.001 * (i % 3));
  // All values in one or two fine buckets: no coarsening happened.
  EXPECT_EQ(h.bucket_count(), 64u);
  EXPECT_LE(h.nonempty_count(), 2u);
}

TEST(MultiResHistogram, WireSizeTracksOccupancyNotResolution) {
  MultiResHistogram sparse(1024, 64, 0.0, 1.0);
  sparse.add(0.5);
  EXPECT_EQ(sparse.wire_size(), 24u + 6u);
  // A fixed histogram of the same finest resolution costs 16 + 4*1024.
  EXPECT_LT(sparse.wire_size(), Histogram(1024, 0.0, 1.0).wire_size() / 10);
}

TEST(MultiResHistogram, WireSizeBoundedByBudget) {
  MultiResHistogram h(1024, 32, 0.0, 1.0);
  util::Rng rng(5);
  for (int i = 0; i < 5000; ++i) h.add(rng.uniform01());
  EXPECT_LE(h.nonempty_count(), 32u);
  EXPECT_LE(h.wire_size(), 24u + 6u * 32u);
}

TEST(MultiResHistogram, MergeAlignsResolutions) {
  MultiResHistogram fine(64, 64, 0.0, 1.0);
  MultiResHistogram coarse(64, 64, 0.0, 1.0);
  fine.add(0.1);
  coarse.add(0.9);
  coarse.coarsen();
  coarse.coarsen();  // now 16 buckets
  fine.merge(coarse);
  EXPECT_EQ(fine.bucket_count(), 16u);
  EXPECT_EQ(fine.total(), 2u);
  EXPECT_TRUE(fine.matches_range(0.05, 0.15));
  EXPECT_TRUE(fine.matches_range(0.85, 0.95));
}

TEST(MultiResHistogram, MergeIncompatibleThrows) {
  MultiResHistogram a(64, 16, 0.0, 1.0);
  MultiResHistogram b(64, 16, 0.0, 2.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  MultiResHistogram c(64, 8, 0.0, 1.0);  // different budget
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(MultiResHistogram, NoFalseNegativesUnderAggregation) {
  // The property the hierarchy depends on, across repeated merges that
  // force coarsening.
  util::Rng rng(29);
  MultiResHistogram merged(256, 16, 0.0, 1.0);
  std::vector<double> values;
  for (int part = 0; part < 8; ++part) {
    MultiResHistogram h(256, 16, 0.0, 1.0);
    for (int i = 0; i < 50; ++i) {
      const double v = rng.uniform(part / 8.0, (part + 1) / 8.0);
      values.push_back(v);
      h.add(v);
    }
    merged.merge(h);
  }
  for (int trial = 0; trial < 400; ++trial) {
    const double lo = rng.uniform01();
    const double hi = lo + rng.uniform(0.0, 1.0 - lo);
    bool any = false;
    for (const double v : values) {
      if (v >= lo && v <= hi) any = true;
    }
    if (any) {
      EXPECT_TRUE(merged.matches_range(lo, hi))
          << "false negative for [" << lo << "," << hi << "]";
    }
  }
}

TEST(MultiResHistogram, RejectsBadConstruction) {
  EXPECT_THROW(MultiResHistogram(0, 8, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(MultiResHistogram(64, 0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(MultiResHistogram(64, 8, 1.0, 1.0), std::invalid_argument);
}

TEST(AttributeSummary, MultiResolutionDispatch) {
  record::AttributeDef def{"x", record::AttributeType::kNumeric, true, 0.0,
                           1.0};
  SummaryConfig config;
  config.numeric_mode = NumericMode::kMultiResolution;
  config.multires_finest_buckets = 128;
  config.multires_budget = 16;
  AttributeSummary s(def, config);
  EXPECT_TRUE(s.is_multires());
  s.add(AttributeValue(0.5));
  EXPECT_TRUE(s.matches(Predicate::range(0, 0.45, 0.55)));
  EXPECT_FALSE(s.matches(Predicate::range(0, 0.8, 0.9)));
}

TEST(ResourceSummary, MultiResolutionModeEndToEnd) {
  SummaryConfig config;
  config.numeric_mode = NumericMode::kMultiResolution;
  config.multires_finest_buckets = 256;
  config.multires_budget = 24;
  const auto schema = record::Schema::uniform_numeric(4);
  util::Rng rng(31);
  std::vector<record::ResourceRecord> records;
  for (int i = 0; i < 200; ++i) {
    records.emplace_back(
        i, 1,
        std::vector<AttributeValue>{
            AttributeValue(rng.uniform(0.2, 0.4)),
            AttributeValue(rng.uniform01()), AttributeValue(rng.uniform01()),
            AttributeValue(rng.uniform01())});
  }
  const auto s = ResourceSummary::of_records(schema, config, records);
  Query hit;
  hit.add(Predicate::range(0, 0.25, 0.35));
  EXPECT_TRUE(s.matches(hit));
  Query miss;
  miss.add(Predicate::range(0, 0.6, 0.9));
  EXPECT_FALSE(s.matches(miss));
  // Sparse encoding: far smaller than the fixed-histogram summary.
  SummaryConfig fixed;
  fixed.histogram_buckets = 1000;
  const auto f = ResourceSummary::of_records(schema, fixed, records);
  EXPECT_LT(s.wire_size(), f.wire_size() / 4);
}

// --- ValueSet ---

TEST(ValueSet, AddContainsClear) {
  ValueSet s;
  s.add("MPEG2");
  s.add("MPEG2");
  s.add("H264");
  EXPECT_TRUE(s.contains("MPEG2"));
  EXPECT_EQ(s.count("MPEG2"), 2u);
  EXPECT_EQ(s.distinct_count(), 2u);
  EXPECT_EQ(s.total(), 3u);
  s.clear();
  EXPECT_FALSE(s.contains("MPEG2"));
  EXPECT_EQ(s.count("MPEG2"), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total(), 0u);
}

TEST(ValueSet, MergeIsMultisetUnion) {
  ValueSet a;
  a.add("x");
  ValueSet b;
  b.add("x");
  b.add("y");
  a.merge(b);
  EXPECT_EQ(a.count("x"), 2u);
  EXPECT_EQ(a.count("y"), 1u);
  EXPECT_EQ(a.total(), 3u);
}

TEST(ValueSet, ValuesSortedAndWireSize) {
  ValueSet s;
  s.add("b");
  s.add("a");
  EXPECT_EQ(s.values(), (std::vector<std::string>{"a", "b"}));
  // 8 header + ("a":2 + 4) + ("b":2 + 4)
  EXPECT_EQ(s.wire_size(), 8u + 6u + 6u);
}

// --- BloomFilter ---

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bloom(1024, 4);
  std::vector<std::string> keys;
  for (int i = 0; i < 50; ++i) {
    keys.push_back("key-" + std::to_string(i));
    bloom.add(keys.back());
  }
  for (const auto& k : keys) {
    EXPECT_TRUE(bloom.maybe_contains(k));
  }
}

TEST(BloomFilter, FalsePositiveRateReasonable) {
  auto bloom = BloomFilter::for_capacity(100, 0.01);
  for (int i = 0; i < 100; ++i) bloom.add("in-" + std::to_string(i));
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.maybe_contains("out-" + std::to_string(i))) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(BloomFilter, MergePreservesBothSides) {
  BloomFilter a(512, 3);
  BloomFilter b(512, 3);
  a.add("alpha");
  b.add("beta");
  a.merge(b);
  EXPECT_TRUE(a.maybe_contains("alpha"));
  EXPECT_TRUE(a.maybe_contains("beta"));
}

TEST(BloomFilter, MergeIncompatibleThrows) {
  BloomFilter a(512, 3);
  BloomFilter b(1024, 3);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  BloomFilter c(512, 4);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(BloomFilter, FillRatioAndEstimate) {
  BloomFilter bloom(512, 3);
  EXPECT_DOUBLE_EQ(bloom.fill_ratio(), 0.0);
  bloom.add("x");
  EXPECT_GT(bloom.fill_ratio(), 0.0);
  EXPECT_GT(bloom.false_positive_estimate(), 0.0);
  EXPECT_LT(bloom.false_positive_estimate(), 1.0);
  bloom.clear();
  EXPECT_TRUE(bloom.empty());
}

TEST(BloomFilter, ForCapacityGeometry) {
  const auto bloom = BloomFilter::for_capacity(1000, 0.01);
  // m = -n ln p / ln2^2 ~ 9585 bits, k ~ 7.
  EXPECT_GT(bloom.bit_count(), 9000u);
  EXPECT_LT(bloom.bit_count(), 11000u);
  EXPECT_GE(bloom.hash_count(), 6u);
  EXPECT_LE(bloom.hash_count(), 8u);
}

TEST(BloomFilter, WireSizeFromBits) {
  BloomFilter bloom(1024, 4);
  EXPECT_EQ(bloom.wire_size(), 16u + 128u);
}

// --- AttributeSummary ---

TEST(AttributeSummary, NumericDispatch) {
  record::AttributeDef def{"x", record::AttributeType::kNumeric, true, 0.0,
                           1.0};
  SummaryConfig config;
  config.histogram_buckets = 10;
  AttributeSummary s(def, config);
  EXPECT_TRUE(s.is_histogram());
  s.add(AttributeValue(0.5));
  EXPECT_TRUE(s.matches(Predicate::range(0, 0.4, 0.6)));
  EXPECT_FALSE(s.matches(Predicate::range(0, 0.8, 0.9)));
  // Range predicates never match categorical summaries and vice versa.
  EXPECT_FALSE(s.matches(Predicate::equals(0, "x")));
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(AttributeSummary, CategoricalEnumerateDispatch) {
  record::AttributeDef def{"enc", record::AttributeType::kCategorical, true,
                           0, 1};
  SummaryConfig config;
  AttributeSummary s(def, config);
  s.add(AttributeValue(std::string("MPEG2")));
  EXPECT_TRUE(s.matches(Predicate::equals(0, "MPEG2")));
  EXPECT_FALSE(s.matches(Predicate::equals(0, "H264")));
  EXPECT_FALSE(s.matches(Predicate::range(0, 0.0, 1.0)));
}

TEST(AttributeSummary, CategoricalBloomDispatch) {
  record::AttributeDef def{"enc", record::AttributeType::kCategorical, true,
                           0, 1};
  SummaryConfig config;
  config.categorical_mode = CategoricalMode::kBloom;
  AttributeSummary s(def, config);
  s.add(AttributeValue(std::string("MPEG2")));
  EXPECT_TRUE(s.matches(Predicate::equals(0, "MPEG2")));
}

TEST(AttributeSummary, MergeKindMismatchThrows) {
  record::AttributeDef num{"x", record::AttributeType::kNumeric, true, 0.0,
                           1.0};
  record::AttributeDef cat{"y", record::AttributeType::kCategorical, true, 0,
                           1};
  SummaryConfig config;
  AttributeSummary a(num, config);
  AttributeSummary b(cat, config);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// --- ResourceSummary ---

record::Schema mixed_schema() {
  return record::Schema({
      {"type", record::AttributeType::kCategorical, true, 0, 1},
      {"rate", record::AttributeType::kNumeric, true, 0.0, 1.0},
      {"secret", record::AttributeType::kNumeric, false, 0.0, 1.0},
  });
}

record::ResourceRecord mixed_record(record::RecordId id,
                                    const std::string& type, double rate) {
  return record::ResourceRecord(
      id, 1, {AttributeValue(type), AttributeValue(rate), AttributeValue(0.0)});
}

TEST(ResourceSummary, MatchesConjunction) {
  SummaryConfig config;
  config.histogram_buckets = 20;
  auto s = ResourceSummary::of_records(
      mixed_schema(), config,
      {mixed_record(1, "camera", 0.3), mixed_record(2, "sensor", 0.8)});
  EXPECT_EQ(s.record_count(), 2u);

  Query both;
  both.add(Predicate::equals(0, "camera"));
  both.add(Predicate::range(1, 0.25, 0.35));
  EXPECT_TRUE(s.matches(both));

  // Per-attribute conjunction can cross records (inherent summary
  // false positive): camera + high rate "matches" even though only the
  // sensor has the high rate.
  Query cross;
  cross.add(Predicate::equals(0, "camera"));
  cross.add(Predicate::range(1, 0.75, 0.85));
  EXPECT_TRUE(s.matches(cross));

  // But a range nothing falls into prunes.
  Query none;
  none.add(Predicate::range(1, 0.45, 0.55));
  EXPECT_FALSE(s.matches(none));
}

// A NaN bound fails `lo <= hi`, as in Predicate::matches and the record
// store: no range test matches it and no count includes it, at every
// level from the histogram up to the resource summary.
TEST(ResourceSummary, NanRangeBoundMatchesNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> kNanRanges[] = {
      {0.2, nan}, {nan, 0.95}, {nan, nan}};
  Histogram h(10, 0.0, 1.0);
  MultiResHistogram m(64, 16, 0.0, 1.0);
  h.add(0.9);
  m.add(0.9);
  ASSERT_TRUE(h.matches_range(0.2, 0.95));
  ASSERT_TRUE(m.matches_range(0.2, 0.95));
  for (const auto& [lo, hi] : kNanRanges) {
    SCOPED_TRACE("[" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
    EXPECT_FALSE(h.matches_range(lo, hi));
    EXPECT_EQ(h.count_in_range(lo, hi), 0u);
    EXPECT_FALSE(m.matches_range(lo, hi));
    EXPECT_EQ(m.count_in_range(lo, hi), 0u);
  }
  for (const auto mode :
       {NumericMode::kHistogram, NumericMode::kMultiResolution}) {
    SummaryConfig config;
    config.numeric_mode = mode;
    const auto s = ResourceSummary::of_records(
        mixed_schema(), config, {mixed_record(1, "camera", 0.9)});
    Query sane;
    sane.add(Predicate::range(1, 0.2, 0.95));
    ASSERT_TRUE(s.matches(sane));
    for (const auto& [lo, hi] : kNanRanges) {
      Query q;
      q.add(Predicate::range(1, lo, hi));
      EXPECT_FALSE(q.predicates()[0].matches(AttributeValue(0.9)));
      EXPECT_FALSE(s.matches(q));
    }
  }
}

TEST(ResourceSummary, EmptySummaryNeverMatches) {
  SummaryConfig config;
  ResourceSummary s(mixed_schema(), config);
  Query q;
  q.add(Predicate::range(1, 0.0, 1.0));
  EXPECT_FALSE(s.matches(q));
  EXPECT_FALSE(s.matches(Query()));  // even the empty query
}

TEST(ResourceSummary, UnsearchableAttributeFailsClosed) {
  SummaryConfig config;
  auto s = ResourceSummary::of_records(mixed_schema(), config,
                                       {mixed_record(1, "camera", 0.3)});
  Query q;
  q.add(Predicate::range(2, 0.0, 1.0));  // "secret" is not searchable
  EXPECT_FALSE(s.matches(q));
}

TEST(ResourceSummary, MergeAggregates) {
  SummaryConfig config;
  auto a = ResourceSummary::of_records(mixed_schema(), config,
                                       {mixed_record(1, "camera", 0.2)});
  const auto b = ResourceSummary::of_records(mixed_schema(), config,
                                             {mixed_record(2, "sensor", 0.9)});
  a.merge(b);
  EXPECT_EQ(a.record_count(), 2u);
  Query q;
  q.add(Predicate::equals(0, "sensor"));
  EXPECT_TRUE(a.matches(q));
}

TEST(ResourceSummary, DigestIndependentOfBuildPath) {
  SummaryConfig config;
  config.histogram_buckets = 20;
  const auto r1 = mixed_record(1, "camera", 0.3);
  const auto r2 = mixed_record(2, "sensor", 0.8);
  const auto r3 = mixed_record(3, "camera", 0.55);
  const auto of = [&](const std::vector<record::ResourceRecord>& records) {
    return ResourceSummary::of_records(mixed_schema(), config, records);
  };

  // Column by column (add_all).
  const auto batch = of({r1, r2, r3});
  // Same content assembled one record at a time, in a different order.
  ResourceSummary stepped(mixed_schema(), config);
  stepped.add(r3);
  stepped.add(r1);
  stepped.add(r2);
  EXPECT_EQ(batch.digest(), stepped.digest());

  // And by merging summaries of two parts, either way round.
  auto merged = of({r2});
  merged.merge(of({r3, r1}));
  EXPECT_EQ(batch.digest(), merged.digest());
  auto reversed = of({r3, r1});
  reversed.merge(of({r2}));
  EXPECT_EQ(batch.digest(), reversed.digest());

  // And in one k-way merge of single records and an empty summary,
  // into an uninitialized summary and into an initialized one.
  const auto s1 = of({r1});
  const auto s2 = of({r2});
  const auto s3 = of({r3});
  const ResourceSummary none(mixed_schema(), config);
  const std::vector<const ResourceSummary*> parts = {&s3, &none, &s1, &s2};
  ResourceSummary kway;
  kway.merge(parts);
  EXPECT_EQ(batch.digest(), kway.digest());
  auto based = of({r2});
  based.merge(std::vector<const ResourceSummary*>{&s1, &none, &s3});
  EXPECT_EQ(batch.digest(), based.digest());
  EXPECT_EQ(kway.record_count(), 3u);

  // Different content must not collide (for these inputs).
  const auto other = of({r1, r2});
  EXPECT_NE(batch.digest(), other.digest());
}

// digest() is memoized, so every mutator must drop the memo: a summary
// hashed before each step must still digest like a fresh twin built
// from the same records that never called digest().
TEST(ResourceSummary, DigestMemoFollowsEveryMutator) {
  SummaryConfig config;
  config.histogram_buckets = 20;
  const auto schema = mixed_schema();
  const auto r1 = mixed_record(1, "camera", 0.3);
  const auto r2 = mixed_record(2, "sensor", 0.8);
  const auto r3 = mixed_record(3, "camera", 0.55);
  const auto twin = [&](const std::vector<record::ResourceRecord>& records) {
    return ResourceSummary::of_records(schema, config, records).digest();
  };

  ResourceSummary s(schema, config);
  (void)s.digest();
  s.add(r1);
  EXPECT_EQ(s.digest(), twin({r1})) << "add";
  s.merge(ResourceSummary::of_records(schema, config, {r3}));
  EXPECT_EQ(s.digest(), twin({r1, r3})) << "merge";
  const auto with_r2 = ResourceSummary::of_records(schema, config, {r2});
  s.merge(std::vector<const ResourceSummary*>{&with_r2, &with_r2});
  EXPECT_EQ(s.digest(), twin({r1, r3, r2, r2})) << "k-way merge";

  // A copy of a warm summary, once mutated, digests its own content and
  // leaves the source's digest alone.
  const auto source = ResourceSummary::of_records(schema, config, {r1, r2});
  const auto source_digest = source.digest();
  ResourceSummary copy = source;
  EXPECT_EQ(copy.digest(), source_digest);
  copy.add(r3);
  EXPECT_EQ(copy.digest(), twin({r1, r2, r3})) << "copy, then add";
  EXPECT_EQ(source.digest(), source_digest);

  // Assignment over a warm target takes the source's content.
  const auto only_r2 = ResourceSummary::of_records(schema, config, {r2});
  copy = only_r2;
  EXPECT_EQ(copy.digest(), twin({r2})) << "copy assignment";
  copy = ResourceSummary::of_records(schema, config, {r3});
  EXPECT_EQ(copy.digest(), twin({r3})) << "move assignment";

  copy.clear();
  EXPECT_EQ(copy.digest(), twin({})) << "clear";
}

// digest() writes its memo from a const method on summaries shared
// across engine threads: concurrent first calls must agree and be
// race-free (run under TSan in CI).
TEST(ResourceSummary, DigestFromConcurrentReaders) {
  SummaryConfig config;
  const auto schema = record::Schema::uniform_numeric(4);
  util::Rng rng(5);
  std::vector<record::ResourceRecord> records;
  for (int i = 0; i < 200; ++i) {
    records.emplace_back(
        i, 1,
        std::vector<AttributeValue>{
            AttributeValue(rng.uniform01()), AttributeValue(rng.uniform01()),
            AttributeValue(rng.uniform01()), AttributeValue(rng.uniform01())});
  }
  const auto twin = ResourceSummary::of_records(schema, config, records);
  const auto shared = std::make_shared<const ResourceSummary>(
      ResourceSummary::of_records(schema, config, records));

  constexpr int kReaders = 4;
  std::latch start(kReaders);
  std::vector<std::uint64_t> seen(kReaders, 0);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[i] = shared->digest();
    });
  }
  for (auto& t : readers) t.join();
  for (const auto d : seen) EXPECT_EQ(d, twin.digest());
}

// Summary builds and merges count into a per-thread scratch: four
// threads building and k-way-merging at once must each get the
// single-threaded digest (run under TSan in CI).
TEST(ResourceSummary, ConcurrentBuildsAndMergesMatchOneThread) {
  SummaryConfig config;
  const auto schema = record::Schema::uniform_numeric(4);
  util::Rng rng(11);
  std::vector<std::vector<record::ResourceRecord>> parts(9);
  record::RecordId id = 0;
  for (auto& part : parts) {
    for (int i = 0; i < 300; ++i) {
      part.emplace_back(
          ++id, 1,
          std::vector<AttributeValue>{AttributeValue(rng.uniform01()),
                                      AttributeValue(rng.uniform(0.2, 0.3)),
                                      AttributeValue(rng.uniform01()),
                                      AttributeValue(0.5)});
    }
  }
  const auto branch_digest = [&] {
    std::vector<ResourceSummary> summaries;
    for (const auto& part : parts) {
      summaries.push_back(ResourceSummary::of_records(schema, config, part));
    }
    std::vector<const ResourceSummary*> inputs;
    for (const auto& s : summaries) inputs.push_back(&s);
    ResourceSummary branch;
    branch.merge(inputs);
    return branch.digest();
  };
  const auto expected = branch_digest();

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::vector<std::uint64_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int round = 0; round < 40; ++round) {
        seen[t].push_back(branch_digest());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& digests : seen) {
    for (const auto d : digests) EXPECT_EQ(d, expected);
  }
}

TEST(ResourceSummary, WireSizeConstantInRecordCount) {
  // The property eq. (1) and Fig. 8 rest on: summary size does not
  // depend on how many records were folded in (for numeric attrs).
  SummaryConfig config;
  config.histogram_buckets = 100;
  const auto schema = record::Schema::uniform_numeric(4);
  ResourceSummary s(schema, config);
  const auto empty_size = s.wire_size();
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    s.add(record::ResourceRecord(
        i, 1,
        {AttributeValue(rng.uniform01()), AttributeValue(rng.uniform01()),
         AttributeValue(rng.uniform01()), AttributeValue(rng.uniform01())}));
  }
  EXPECT_EQ(s.wire_size(), empty_size);
}

TEST(ResourceSummary, NoFalseNegativesAgainstRecordSet) {
  // Property: if any record matches a query, the summary must match.
  util::Rng rng(23);
  SummaryConfig config;
  config.histogram_buckets = 50;
  const auto schema = record::Schema::uniform_numeric(4);
  std::vector<record::ResourceRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.emplace_back(
        i, 1,
        std::vector<AttributeValue>{
            AttributeValue(rng.uniform01()), AttributeValue(rng.uniform01()),
            AttributeValue(rng.uniform01()), AttributeValue(rng.uniform01())});
  }
  const auto summary = ResourceSummary::of_records(schema, config, records);
  for (int trial = 0; trial < 300; ++trial) {
    Query q;
    for (std::size_t a = 0; a < 4; ++a) {
      const double lo = rng.uniform01() * 0.8;
      q.add(Predicate::range(a, lo, lo + 0.2));
    }
    bool any = false;
    for (const auto& r : records) {
      if (q.matches(r)) any = true;
    }
    if (any) {
      EXPECT_TRUE(summary.matches(q)) << "false negative";
    }
  }
}

TEST(ResourceSummary, MergeSchemaMismatchThrows) {
  SummaryConfig config;
  ResourceSummary a(record::Schema::uniform_numeric(4), config);
  const ResourceSummary b(record::Schema::uniform_numeric(5), config);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(ResourceSummary, SlotAccess) {
  SummaryConfig config;
  auto s = ResourceSummary::of_records(mixed_schema(), config,
                                       {mixed_record(1, "camera", 0.25)});
  EXPECT_TRUE(s.slot(1).is_histogram());
  EXPECT_THROW(s.slot(2), std::out_of_range);  // unsearchable
  EXPECT_THROW(s.slot(9), std::out_of_range);
}

}  // namespace
}  // namespace roads::summary

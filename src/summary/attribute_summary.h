// Per-attribute summary: histogram for numeric attributes, ValueSet or
// BloomFilter for categorical ones. AttributeSummary hides the choice
// behind one interface so ResourceSummary can evaluate any predicate
// against any attribute uniformly. Every representation grows only
// (add, merge) or empties (clear); none subtracts, so a summary of
// changed data is rebuilt from the data.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "record/query.h"
#include "record/schema.h"
#include "record/value.h"
#include "summary/bloom_filter.h"
#include "summary/histogram.h"
#include "summary/multires_histogram.h"
#include "summary/value_set.h"

namespace roads::summary {

/// How categorical attributes are summarized; the ablation bench
/// compares the two (size vs false-positive-driven query fan-out).
enum class CategoricalMode : std::uint8_t { kEnumerate, kBloom };

/// How numeric attributes are summarized: the paper's fixed-bucket
/// histogram, or the multi-resolution variant of [11] (sparse, adaptive
/// resolution that coarsens under aggregation).
enum class NumericMode : std::uint8_t { kHistogram, kMultiResolution };

/// Geometry shared by every summary in a deployment; all participants
/// must agree on it or summaries cannot merge.
struct SummaryConfig {
  NumericMode numeric_mode = NumericMode::kHistogram;
  std::size_t histogram_buckets = 1000;  // paper's simulation default
  /// Multi-resolution mode: finest resolution and the occupied-bucket
  /// budget that triggers coarsening.
  std::size_t multires_finest_buckets = 1024;
  std::size_t multires_budget = 64;
  CategoricalMode categorical_mode = CategoricalMode::kEnumerate;
  std::size_t bloom_bits = 1024;
  std::size_t bloom_hashes = 4;

  bool operator==(const SummaryConfig& other) const = default;
};

class AttributeSummary {
 public:
  AttributeSummary() = default;

  /// Builds an empty summary with geometry appropriate for `def`.
  AttributeSummary(const record::AttributeDef& def,
                   const SummaryConfig& config);

  bool empty() const;

  void add(const record::AttributeValue& value);
  /// A whole column at once: the same as add() on each value in order.
  void add_all(const std::vector<double>& values);
  void add_all(const std::vector<std::string>& values);
  /// Merges every initialized summary in `others` into this one; an
  /// uninitialized summary takes the first one's kind. Histograms merge
  /// in one k-way pass, the other kinds one input at a time. Throws
  /// std::invalid_argument, before anything changes, when kinds differ.
  void merge(std::span<const AttributeSummary* const> others);
  /// merge() with one input.
  void merge(const AttributeSummary& other);
  void clear();

  /// Folds the representation's full content into a digest.
  void hash_into(util::Fnv1a& h) const;

  /// Conservative predicate test — never false-negative for values that
  /// were added; may be false-positive (bucket granularity, Bloom
  /// collisions).
  bool matches(const record::Predicate& predicate) const;

  std::uint64_t wire_size() const;

  /// Accessors for tests/ablation; throw std::bad_variant_access when the
  /// summary holds a different alternative.
  const Histogram& histogram() const { return std::get<Histogram>(repr_); }
  const MultiResHistogram& multires() const {
    return std::get<MultiResHistogram>(repr_);
  }
  const ValueSet& value_set() const { return std::get<ValueSet>(repr_); }
  const BloomFilter& bloom() const { return std::get<BloomFilter>(repr_); }
  bool is_histogram() const { return std::holds_alternative<Histogram>(repr_); }
  bool is_multires() const {
    return std::holds_alternative<MultiResHistogram>(repr_);
  }

 private:
  std::variant<std::monostate, Histogram, ValueSet, BloomFilter,
               MultiResHistogram>
      repr_;
};

}  // namespace roads::summary

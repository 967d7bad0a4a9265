// Enumerated value-set summary for categorical attributes (§III-B).
// Stores every distinct value with its count; the digest and the wire
// size carry the counts. Merging is multiset union. Appropriate when
// the number of distinct values is limited; BloomFilter is the
// compressed alternative.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/hash.h"

namespace roads::summary {

class ValueSet {
 public:
  bool empty() const { return counts_.empty(); }
  std::size_t distinct_count() const { return counts_.size(); }
  std::uint64_t total() const { return total_; }

  void add(const std::string& value);
  void clear();

  void merge(const ValueSet& other);

  bool contains(const std::string& value) const;
  std::uint64_t count(const std::string& value) const;

  std::vector<std::string> values() const;

  /// 8-byte header + per value (length-prefixed string + 4-byte count).
  std::uint64_t wire_size() const;

  /// Folds the full content ((value, count) pairs) into a digest.
  void hash_into(util::Fnv1a& h) const;

  bool operator==(const ValueSet& other) const = default;

 private:
  std::map<std::string, std::uint32_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace roads::summary

#include "summary/value_set.h"

namespace roads::summary {

void ValueSet::add(const std::string& value) {
  ++counts_[value];
  ++total_;
}

void ValueSet::clear() {
  counts_.clear();
  total_ = 0;
}

void ValueSet::merge(const ValueSet& other) {
  for (const auto& [value, count] : other.counts_) {
    counts_[value] += count;
  }
  total_ += other.total_;
}

bool ValueSet::contains(const std::string& value) const {
  return counts_.count(value) > 0;
}

std::uint64_t ValueSet::count(const std::string& value) const {
  auto it = counts_.find(value);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<std::string> ValueSet::values() const {
  std::vector<std::string> out;
  out.reserve(counts_.size());
  for (const auto& [value, _] : counts_) out.push_back(value);
  return out;
}

std::uint64_t ValueSet::wire_size() const {
  std::uint64_t size = 8;
  for (const auto& [value, _] : counts_) size += value.size() + 1 + 4;
  return size;
}

void ValueSet::hash_into(util::Fnv1a& h) const {
  h.add(static_cast<std::uint64_t>(counts_.size()));
  for (const auto& [value, count] : counts_) {
    h.add(value);
    h.add(static_cast<std::uint64_t>(count));
  }
}

}  // namespace roads::summary

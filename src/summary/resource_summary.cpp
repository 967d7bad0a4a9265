#include "summary/resource_summary.h"

#include <stdexcept>
#include <string>

#include "util/hash.h"

namespace roads::summary {

ResourceSummary::ResourceSummary(const record::Schema& schema,
                                 const SummaryConfig& config) {
  slots_.reserve(index_slots(schema));
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (slot_index_[i] != kNotSearchable) {
      slots_.emplace_back(schema.at(i), config);
    }
  }
}

ResourceSummary ResourceSummary::of_slots(const record::Schema& schema,
                                          std::vector<AttributeSummary> slots,
                                          std::uint64_t record_count) {
  ResourceSummary summary;
  if (summary.index_slots(schema) != slots.size()) {
    throw std::invalid_argument("ResourceSummary: slot count mismatch");
  }
  summary.slots_ = std::move(slots);
  summary.record_count_ = record_count;
  return summary;
}

std::size_t ResourceSummary::index_slots(const record::Schema& schema) {
  slot_index_.assign(schema.size(), kNotSearchable);
  std::size_t count = 0;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (schema.at(i).searchable) slot_index_[i] = count++;
  }
  return count;
}

ResourceSummary ResourceSummary::of_records(
    const record::Schema& schema, const SummaryConfig& config,
    const std::vector<record::ResourceRecord>& records) {
  ResourceSummary summary(schema, config);
  for (const auto& r : records) {
    if (r.values().size() < summary.slot_index_.size()) {
      throw std::invalid_argument(
          "ResourceSummary: record too short for schema");
    }
  }
  std::vector<double> numbers;
  std::vector<std::string> categories;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (summary.slot_index_[i] == kNotSearchable) continue;
    auto& slot = summary.slots_[summary.slot_index_[i]];
    if (schema.at(i).type == record::AttributeType::kNumeric) {
      numbers.clear();
      for (const auto& r : records) numbers.push_back(r.value(i).number());
      slot.add_all(numbers);
    } else {
      categories.clear();
      for (const auto& r : records) categories.push_back(r.value(i).category());
      slot.add_all(categories);
    }
  }
  summary.record_count_ = records.size();
  return summary;
}

bool ResourceSummary::empty() const {
  for (const auto& s : slots_) {
    if (!s.empty()) return false;
  }
  return true;
}

void ResourceSummary::add(const record::ResourceRecord& record) {
  digest_memo_.reset();
  if (record.values().size() < slot_index_.size()) {
    throw std::invalid_argument("ResourceSummary: record too short for schema");
  }
  for (std::size_t i = 0; i < slot_index_.size(); ++i) {
    if (slot_index_[i] == kNotSearchable) continue;
    slots_[slot_index_[i]].add(record.value(i));
  }
  ++record_count_;
}

std::uint64_t ResourceSummary::digest() const {
  if (const auto memo = digest_memo_.get(); memo != DigestMemo::kNone) {
    return memo;
  }
  util::Fnv1a h;
  h.add(record_count_);
  h.add(static_cast<std::uint64_t>(slots_.size()));
  for (const auto& s : slots_) s.hash_into(h);
  digest_memo_.set(h.value());
  return h.value();
}

void ResourceSummary::merge(const ResourceSummary& other) {
  const ResourceSummary* one = &other;
  merge(std::span(&one, 1));
}

void ResourceSummary::merge(std::span<const ResourceSummary* const> others) {
  std::vector<const ResourceSummary*> inputs;
  inputs.reserve(others.size());
  for (const ResourceSummary* other : others) {
    if (other->initialized()) inputs.push_back(other);
  }
  if (inputs.empty()) return;
  const auto& shape = initialized() ? *this : *inputs.front();
  for (const auto* input : inputs) {
    if (input->slots_.size() != shape.slots_.size()) {
      throw std::invalid_argument("ResourceSummary: schema mismatch in merge");
    }
  }
  if (!initialized()) {
    // Empty slots take their kind and geometry from the inputs.
    slot_index_ = shape.slot_index_;
    slots_.resize(shape.slots_.size());
  }
  std::uint64_t added = 0;
  for (const auto* input : inputs) added += input->record_count_;
  digest_memo_.reset();
  std::vector<const AttributeSummary*> column(inputs.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      column[k] = &inputs[k]->slots_[i];
    }
    slots_[i].merge(column);
  }
  record_count_ += added;
}

void ResourceSummary::clear() {
  digest_memo_.reset();
  for (auto& s : slots_) s.clear();
  record_count_ = 0;
}

bool ResourceSummary::matches(const record::Query& query) const {
  if (!initialized() || record_count_ == 0) return false;
  for (const auto& p : query.predicates()) {
    if (p.attribute >= slot_index_.size() ||
        slot_index_[p.attribute] == kNotSearchable) {
      return false;  // unsearchable/unknown attribute cannot match
    }
    if (!slots_[slot_index_[p.attribute]].matches(p)) return false;
  }
  return true;
}

std::uint64_t ResourceSummary::wire_size() const {
  std::uint64_t size = 16;  // origin + record count + slot count
  for (const auto& s : slots_) size += s.wire_size();
  return size;
}

const AttributeSummary& ResourceSummary::slot(std::size_t attribute) const {
  if (attribute >= slot_index_.size() ||
      slot_index_[attribute] == kNotSearchable) {
    throw std::out_of_range("ResourceSummary: attribute has no summary slot");
  }
  return slots_[slot_index_[attribute]];
}

}  // namespace roads::summary

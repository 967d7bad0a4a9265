#include "summary/resource_summary.h"

#include <stdexcept>

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
  for (const auto& r : records) summary.add(r);
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
  if (!other.initialized()) return;
  if (!initialized()) {
    *this = other;
    return;
  }
  digest_memo_.reset();
  if (slots_.size() != other.slots_.size()) {
    throw std::invalid_argument("ResourceSummary: schema mismatch in merge");
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].merge(other.slots_[i]);
  }
  record_count_ += other.record_count_;
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

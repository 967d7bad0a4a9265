#include "store/record_store.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace roads::store {

namespace {

bool is_numeric(const record::AttributeDef& def) {
  return def.type == record::AttributeType::kNumeric;
}

}  // namespace

RecordStore::RecordStore(record::Schema schema)
    : schema_(std::move(schema)), columns_(schema_.size()) {}

void RecordStore::insert(record::ResourceRecord record) {
  if (!record.conforms_to(schema_)) {
    throw std::invalid_argument("RecordStore: record does not match schema");
  }
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  if (!slots_.emplace(record.id(), slot).second) {
    throw std::invalid_argument("RecordStore: duplicate record id");
  }
  store_values(slot, record);
  ids_.push_back(record.id());
  owners_.push_back(record.owner());
  stored_bytes_ += record.wire_size();
  ++version_;
}

void RecordStore::insert_all(const RecordStore& other) {
  bool same_shape = other.schema_.size() == schema_.size();
  for (std::size_t a = 0; same_shape && a < schema_.size(); ++a) {
    same_shape = other.schema_.at(a).type == schema_.at(a).type;
  }
  if (!same_shape) {
    throw std::invalid_argument("RecordStore: record does not match schema");
  }
  for (const auto id : other.ids_) {
    if (slots_.count(id)) {
      throw std::invalid_argument("RecordStore: duplicate record id");
    }
  }
  for (const auto from : other.id_order()) {
    const auto slot = static_cast<std::uint32_t>(ids_.size());
    slots_.emplace(other.ids_[from], slot);
    ids_.push_back(other.ids_[from]);
    owners_.push_back(other.owners_[from]);
    for (std::size_t a = 0; a < columns_.size(); ++a) {
      if (is_numeric(schema_.at(a))) {
        columns_[a].numbers.push_back(other.columns_[a].numbers[from]);
      } else {
        columns_[a].categories.push_back(other.columns_[a].categories[from]);
      }
    }
    ++version_;
  }
  stored_bytes_ += other.stored_bytes_;
}

bool RecordStore::erase(record::RecordId id) {
  auto it = slots_.find(id);
  if (it == slots_.end()) return false;
  const auto slot = it->second;
  stored_bytes_ -= wire_size_at(slot);
  slots_.erase(it);
  // Swap-remove: the last slot fills the hole.
  const auto last = static_cast<std::uint32_t>(ids_.size() - 1);
  if (slot != last) slots_[ids_[last]] = slot;
  ids_[slot] = ids_[last];
  ids_.pop_back();
  owners_[slot] = owners_[last];
  owners_.pop_back();
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    auto& column = columns_[a];
    if (is_numeric(schema_.at(a))) {
      column.numbers[slot] = column.numbers[last];
      column.numbers.pop_back();
    } else {
      std::swap(column.categories[slot], column.categories[last]);
      column.categories.pop_back();
    }
  }
  ++version_;
  return true;
}

void RecordStore::update(record::ResourceRecord record) {
  auto it = slots_.find(record.id());
  if (it == slots_.end()) {
    throw std::invalid_argument("RecordStore: update of unknown record");
  }
  if (!record.conforms_to(schema_)) {
    throw std::invalid_argument("RecordStore: record does not match schema");
  }
  const auto slot = it->second;
  stored_bytes_ -= wire_size_at(slot);
  stored_bytes_ += record.wire_size();
  owners_[slot] = record.owner();
  store_values(slot, record);
  ++version_;
}

bool RecordStore::contains(record::RecordId id) const {
  return slots_.count(id) > 0;
}

std::uint32_t RecordStore::slot_of(record::RecordId id) const {
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    throw std::out_of_range("RecordStore: unknown record id");
  }
  return it->second;
}

record::ResourceRecord RecordStore::get(record::RecordId id) const {
  return record_at(slot_of(id));
}

std::uint64_t RecordStore::wire_size(record::RecordId id) const {
  return wire_size_at(slot_of(id));
}

record::ResourceRecord RecordStore::record_at(std::uint32_t slot) const {
  std::vector<record::AttributeValue> values;
  values.reserve(columns_.size());
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    if (is_numeric(schema_.at(a))) {
      values.emplace_back(columns_[a].numbers[slot]);
    } else {
      values.emplace_back(columns_[a].categories[slot]);
    }
  }
  return {ids_[slot], owners_[slot], std::move(values)};
}

std::uint64_t RecordStore::wire_size_at(std::uint32_t slot) const {
  // ResourceRecord::wire_size(): a 16-byte header, then per value a
  // 2-byte tag and AttributeValue::wire_size().
  std::uint64_t size = 16;
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    size += 2 + (is_numeric(schema_.at(a))
                     ? 8
                     : columns_[a].categories[slot].size() + 1);
  }
  return size;
}

void RecordStore::store_values(std::uint32_t slot,
                               const record::ResourceRecord& record) {
  const bool append = slot == ids_.size();
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    const auto& value = record.value(a);
    auto& column = columns_[a];
    if (value.is_numeric()) {
      if (append) {
        column.numbers.push_back(value.number());
      } else {
        column.numbers[slot] = value.number();
      }
    } else if (append) {
      column.categories.push_back(value.category());
    } else {
      column.categories[slot] = value.category();
    }
  }
}

bool RecordStore::indexable(const record::Predicate& p) const {
  return p.kind == record::Predicate::Kind::kRange &&
         p.attribute < schema_.size() && schema_.at(p.attribute).searchable &&
         is_numeric(schema_.at(p.attribute));
}

void RecordStore::filter(const record::Predicate& p,
                         std::vector<std::uint32_t>& selection,
                         bool all) const {
  // Branch-free compaction: each slot is written at the cursor, which
  // moves past it only when the slot passes.
  const auto keep = [&](auto passes) {
    std::size_t kept = 0;
    if (all) {
      selection.resize(size());
      for (std::uint32_t s = 0; s < size(); ++s) {
        selection[kept] = s;
        kept += passes(s);
      }
    } else {
      for (std::size_t i = 0; i < selection.size(); ++i) {
        const auto s = selection[i];
        selection[kept] = s;
        kept += passes(s);
      }
    }
    selection.resize(kept);
  };
  // Predicate::matches: a range takes only numeric values in [lo, hi]
  // (never NaN, nothing when !(lo <= hi)), an equality only an equal
  // category, and an attribute past the schema matches nothing.
  const bool range = p.kind == record::Predicate::Kind::kRange;
  if (p.attribute >= schema_.size() ||
      range != is_numeric(schema_.at(p.attribute))) {
    selection.clear();
    return;
  }
  const auto& column = columns_[p.attribute];
  if (range) {
    const double lo = p.lo;
    const double hi = p.hi;
    const double* values = column.numbers.data();
    keep([=](std::uint32_t s) {
      const double v = values[s];
      return static_cast<std::size_t>(v >= lo) & (v <= hi);
    });
  } else {
    keep([&](std::uint32_t s) {
      return static_cast<std::size_t>(column.categories[s] == p.value);
    });
  }
}

std::vector<std::uint32_t> RecordStore::select(const record::Query& q,
                                               QueryStats* stats) const {
  constexpr std::size_t kNone = ~std::size_t{0};
  const auto& predicates = q.predicates();
  std::vector<std::uint32_t> selection;
  bool all = true;  // `selection` stands for every slot until a filter runs
  std::size_t first = kNone;  // the predicate `selection` already applies
  if (stats != nullptr && size() >= kIndexThreshold) {
    // Price the query as an index would: run each indexable predicate
    // over its whole column, which counts its matches, and keep the
    // smallest pass so the most selective predicate goes first.
    std::vector<std::uint32_t> pass;
    for (std::size_t i = 0; i < predicates.size(); ++i) {
      if (!indexable(predicates[i])) continue;
      filter(predicates[i], pass, /*all=*/true);
      if (first == kNone || pass.size() < selection.size()) {
        selection.swap(pass);
        first = i;
        all = false;
        if (selection.empty()) break;
      }
    }
  }
  if (stats != nullptr) {
    stats->used_index = first != kNone;
    stats->candidates_scanned = stats->used_index ? selection.size() : size();
  }
  for (std::size_t i = 0; i < predicates.size(); ++i) {
    if (i == first) continue;
    if (!all && selection.empty()) break;
    filter(predicates[i], selection, all);
    all = false;
  }
  if (all) {  // the empty query
    selection.resize(size());
    std::iota(selection.begin(), selection.end(), std::uint32_t{0});
  }
  if (stats != nullptr) stats->matches = selection.size();
  return selection;
}

std::vector<record::RecordId> RecordStore::query(
    const record::Query& q) const {
  return query(q, nullptr);
}

std::vector<record::RecordId> RecordStore::query(const record::Query& q,
                                                 QueryStats* stats) const {
  const auto selection = select(q, stats);
  std::vector<record::RecordId> out;
  out.reserve(selection.size());
  for (const auto slot : selection) out.push_back(ids_[slot]);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t RecordStore::count_matching(const record::Query& q) const {
  return select(q, nullptr).size();
}

summary::ResourceSummary RecordStore::summarize(
    const summary::SummaryConfig& config) const {
  std::vector<summary::AttributeSummary> slots;
  for (const auto attribute : schema_.searchable_indices()) {
    const auto& def = schema_.at(attribute);
    auto& slot = slots.emplace_back(def, config);
    if (is_numeric(def)) {
      slot.add_all(columns_[attribute].numbers);
    } else {
      slot.add_all(columns_[attribute].categories);
    }
  }
  return summary::ResourceSummary::of_slots(schema_, std::move(slots),
                                            size());
}

std::vector<std::uint32_t> RecordStore::id_order() const {
  std::vector<std::uint32_t> order(size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(),
            [this](auto a, auto b) { return ids_[a] < ids_[b]; });
  return order;
}

std::vector<record::ResourceRecord> RecordStore::snapshot() const {
  const auto order = id_order();
  std::vector<record::ResourceRecord> out;
  out.reserve(order.size());
  for (const auto slot : order) out.push_back(record_at(slot));
  return out;
}

}  // namespace roads::store

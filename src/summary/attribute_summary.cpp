#include "summary/attribute_summary.h"

#include <stdexcept>

namespace roads::summary {

AttributeSummary::AttributeSummary(const record::AttributeDef& def,
                                   const SummaryConfig& config) {
  if (def.type == record::AttributeType::kNumeric) {
    if (config.numeric_mode == NumericMode::kMultiResolution) {
      repr_ = MultiResHistogram(config.multires_finest_buckets,
                                config.multires_budget, def.domain_min,
                                def.domain_max);
    } else {
      repr_ = Histogram(config.histogram_buckets, def.domain_min,
                        def.domain_max);
    }
  } else if (config.categorical_mode == CategoricalMode::kEnumerate) {
    repr_ = ValueSet();
  } else {
    repr_ = BloomFilter(config.bloom_bits, config.bloom_hashes);
  }
}

bool AttributeSummary::empty() const {
  return std::visit(
      [](const auto& r) -> bool {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return true;
        } else {
          return r.empty();
        }
      },
      repr_);
}

void AttributeSummary::add(const record::AttributeValue& value) {
  if (auto* h = std::get_if<Histogram>(&repr_)) {
    h->add(value.number());
  } else if (auto* m = std::get_if<MultiResHistogram>(&repr_)) {
    m->add(value.number());
  } else if (auto* s = std::get_if<ValueSet>(&repr_)) {
    s->add(value.category());
  } else if (auto* b = std::get_if<BloomFilter>(&repr_)) {
    b->add(value.category());
  } else {
    throw std::logic_error("AttributeSummary: add on uninitialized summary");
  }
}

void AttributeSummary::add_all(const std::vector<double>& values) {
  if (auto* h = std::get_if<Histogram>(&repr_)) {
    h->add_all(values);
  } else if (auto* m = std::get_if<MultiResHistogram>(&repr_)) {
    for (const double v : values) m->add(v);
  } else {
    throw std::logic_error("AttributeSummary: numeric column, other summary");
  }
}

void AttributeSummary::add_all(const std::vector<std::string>& values) {
  if (auto* s = std::get_if<ValueSet>(&repr_)) {
    for (const auto& v : values) s->add(v);
  } else if (auto* b = std::get_if<BloomFilter>(&repr_)) {
    for (const auto& v : values) b->add(v);
  } else {
    throw std::logic_error(
        "AttributeSummary: categorical column, other summary");
  }
}

void AttributeSummary::hash_into(util::Fnv1a& h) const {
  // Tag the alternative so e.g. an empty ValueSet and an empty Bloom
  // filter never collide trivially.
  h.add(static_cast<std::uint64_t>(repr_.index()));
  std::visit(
      [&h](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (!std::is_same_v<T, std::monostate>) r.hash_into(h);
      },
      repr_);
}

void AttributeSummary::merge(const AttributeSummary& other) {
  const AttributeSummary* one = &other;
  merge(std::span(&one, 1));
}

void AttributeSummary::merge(std::span<const AttributeSummary* const> others) {
  std::vector<const AttributeSummary*> inputs;
  inputs.reserve(others.size());
  std::size_t kind = repr_.index();
  for (const AttributeSummary* other : others) {
    if (std::holds_alternative<std::monostate>(other->repr_)) continue;
    if (std::holds_alternative<std::monostate>(repr_) && inputs.empty()) {
      kind = other->repr_.index();
    }
    if (other->repr_.index() != kind) {
      throw std::invalid_argument(
          "AttributeSummary: merging different summary kinds");
    }
    inputs.push_back(other);
  }
  if (inputs.empty()) return;
  if (std::holds_alternative<std::monostate>(repr_)) {
    // An empty histogram takes its geometry in the merge; the other
    // kinds start as a copy of the first input.
    if (std::holds_alternative<Histogram>(inputs.front()->repr_)) {
      repr_ = Histogram();
    } else {
      repr_ = inputs.front()->repr_;
      inputs.erase(inputs.begin());
    }
  }
  if (auto* h = std::get_if<Histogram>(&repr_)) {
    std::vector<const Histogram*> histograms;
    histograms.reserve(inputs.size());
    for (const auto* input : inputs) {
      histograms.push_back(&std::get<Histogram>(input->repr_));
    }
    h->merge(histograms);
    return;
  }
  for (const auto* input : inputs) {
    std::visit(
        [input](auto& r) {
          using T = std::decay_t<decltype(r)>;
          if constexpr (!std::is_same_v<T, std::monostate>) {
            r.merge(std::get<T>(input->repr_));
          }
        },
        repr_);
  }
}

void AttributeSummary::clear() {
  std::visit(
      [](auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (!std::is_same_v<T, std::monostate>) r.clear();
      },
      repr_);
}

bool AttributeSummary::matches(const record::Predicate& predicate) const {
  using Kind = record::Predicate::Kind;
  if (auto* h = std::get_if<Histogram>(&repr_)) {
    return predicate.kind == Kind::kRange &&
           h->matches_range(predicate.lo, predicate.hi);
  }
  if (auto* m = std::get_if<MultiResHistogram>(&repr_)) {
    return predicate.kind == Kind::kRange &&
           m->matches_range(predicate.lo, predicate.hi);
  }
  if (auto* s = std::get_if<ValueSet>(&repr_)) {
    return predicate.kind == Kind::kEquals && s->contains(predicate.value);
  }
  if (auto* b = std::get_if<BloomFilter>(&repr_)) {
    return predicate.kind == Kind::kEquals &&
           b->maybe_contains(predicate.value);
  }
  return false;
}

std::uint64_t AttributeSummary::wire_size() const {
  return std::visit(
      [](const auto& r) -> std::uint64_t {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return 0;
        } else {
          return r.wire_size();
        }
      },
      repr_);
}

}  // namespace roads::summary

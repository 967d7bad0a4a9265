#include "record/record.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace roads::record {

const AttributeValue& ResourceRecord::value(std::size_t attribute) const {
  if (attribute >= values_.size()) {
    throw std::out_of_range("ResourceRecord: attribute index out of range");
  }
  return values_[attribute];
}

void ResourceRecord::set_value(std::size_t attribute, AttributeValue value) {
  if (attribute >= values_.size()) {
    throw std::out_of_range("ResourceRecord: attribute index out of range");
  }
  values_[attribute] = std::move(value);
}

bool ResourceRecord::conforms_to(const Schema& schema) const {
  if (values_.size() != schema.size()) return false;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].type() != schema.at(i).type) return false;
    // NaN has no bucket in any summary; +-inf clamps into the domain.
    if (values_[i].is_numeric() && std::isnan(values_[i].number())) {
      return false;
    }
  }
  return true;
}

std::uint64_t ResourceRecord::wire_size() const {
  std::uint64_t size = 16;  // id (8) + owner (4) + value count (4)
  for (const auto& v : values_) size += 2 + v.wire_size();
  return size;
}

std::string ResourceRecord::to_string(const Schema& schema) const {
  std::ostringstream os;
  os << "{record " << id_ << " owner " << owner_ << ":";
  for (std::size_t i = 0; i < values_.size() && i < schema.size(); ++i) {
    os << " " << schema.at(i).name << "=" << values_[i].to_string();
  }
  os << "}";
  return os.str();
}

}  // namespace roads::record

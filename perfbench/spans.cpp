#include "spans.h"

#include <stdexcept>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return 0;
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_.empty() ? 0 : open_.back();
  rec.request = request;
  rec.start_ns = now_ns();
  spans_.push_back(rec);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_.pop_back();
  spans_[id - 1].end_ns = now_ns();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent != 0 && s.end_ns >= 0) {
      child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0) continue;
    auto& t = out[s.name];
    const auto dur = s.end_ns - s.start_ns;
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"self_time\": {";
  bool first = true;
  for (const auto& [name, t] : totals()) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << t.count
       << ", \"total_s\": " << t.total_s << ", \"self_s\": " << t.self_s
       << "}";
    first = false;
  }
  os << "},\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "[" << (i + 1) << ", \"" << s.name
       << "\", " << s.start_ns << ", " << s.end_ns << ", " << s.parent << ", "
       << s.request << "]";
  }
  os << "\n],\n\"span_fields\": [\"id\", \"name\", \"start_ns\", \"end_ns\", "
        "\"parent\", \"request\"]}\n";
}

}  // namespace perfbench

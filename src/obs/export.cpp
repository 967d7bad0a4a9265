#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>
#include <vector>

#include "obs/profile.h"
#include "obs/timeline.h"

namespace roads::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_trace_jsonl(const TraceBuffer& trace, std::ostream& os) {
  for (const auto& ev : trace.events()) {
    os << "{\"t_us\":" << ev.at_us << ",\"kind\":\"" << to_string(ev.kind)
       << "\",\"node\":" << ev.node;
    if (ev.span != 0) os << ",\"span\":" << ev.span;
    if (ev.peer != ev.node || ev.kind == TraceKind::kSend ||
        ev.kind == TraceKind::kDeliver) {
      os << ",\"peer\":" << ev.peer;
    }
    if (ev.bytes != 0) os << ",\"bytes\":" << ev.bytes;
    if (ev.value != 0.0) os << ",\"value\":" << json_number(ev.value);
    if (!ev.label.empty()) {
      os << ",\"label\":\"" << json_escape(ev.label) << "\"";
    }
    if (ev.trace != 0) os << ",\"trace\":" << ev.trace;
    if (ev.parent != 0) os << ",\"parent\":" << ev.parent;
    os << "}\n";
  }
}

namespace {

/// One rendered trace event, sortable by (ts, stable sequence).
struct ChromeEvent {
  std::int64_t ts = 0;
  std::uint64_t seq = 0;
  std::string json;
};

std::string chrome_span_name(const Span& s) {
  switch (s.category) {
    case SpanCategory::kNetwork:
      return "net:" + s.label;
    case SpanCategory::kRoot:
      return s.label.empty() ? "root" : s.label;
    default:
      return s.label.empty() ? to_string(s.category) : s.label;
  }
}

void emit_chrome_events(const SpanTree& tree, std::ostream& os) {
  // Stable pid/tid mapping: everything is one process (pid 1), one
  // track per node (tid = node + 1, so node 0 is not confused with the
  // unset tid 0).
  std::set<std::uint32_t> nodes;
  for (const auto& [id, s] : tree.spans()) {
    if (s.start_us >= 0) nodes.insert(s.node);
  }
  for (const auto& m : tree.markers()) nodes.insert(m.node);

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&os, &first](const std::string& json) {
    if (!first) os << ",";
    first = false;
    os << "\n" << json;
  };

  emit("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
       "\"args\":{\"name\":\"roads-sim\"}}");
  for (const auto node : nodes) {
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(node + 1) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"node " +
         std::to_string(node) + "\"}}");
  }

  std::vector<ChromeEvent> events;
  std::uint64_t seq = 0;
  for (const auto& [id, s] : tree.spans()) {
    if (s.start_us < 0) continue;  // begin event evicted; can't place it
    const std::int64_t dur = s.closed() ? s.end_us - s.start_us : 0;
    std::string json = "{\"ph\":\"X\",\"pid\":1,\"tid\":" +
                       std::to_string(s.node + 1) +
                       ",\"ts\":" + std::to_string(s.start_us) +
                       ",\"dur\":" + std::to_string(dur) + ",\"name\":\"" +
                       json_escape(chrome_span_name(s)) + "\",\"cat\":\"" +
                       to_string(s.category) +
                       "\",\"args\":{\"span\":" + std::to_string(s.id) +
                       ",\"parent\":" + std::to_string(s.parent) +
                       ",\"trace\":" + std::to_string(s.trace);
    if (s.category == SpanCategory::kNetwork) {
      json += ",\"peer\":" + std::to_string(s.peer) +
              ",\"bytes\":" + std::to_string(s.bytes);
    }
    if (s.false_positive) json += ",\"false_positive\":true";
    if (s.dropped) json += ",\"dropped\":true";
    if (!s.closed()) json += ",\"unclosed\":true";
    json += "}}";
    events.push_back({s.start_us, seq++, std::move(json)});
  }
  for (const auto& m : tree.markers()) {
    std::string json =
        "{\"ph\":\"i\",\"pid\":1,\"tid\":" + std::to_string(m.node + 1) +
        ",\"ts\":" + std::to_string(m.at_us) + ",\"s\":\"t\",\"name\":\"" +
        to_string(m.kind) + "\",\"args\":{\"span\":" + std::to_string(m.span) +
        ",\"trace\":" + std::to_string(m.trace) +
        ",\"value\":" + json_number(m.value) + "}}";
    events.push_back({m.at_us, seq++, std::move(json)});
  }
  std::sort(events.begin(), events.end(),
            [](const ChromeEvent& a, const ChromeEvent& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
            });
  for (const auto& ev : events) emit(ev.json);
  os << "\n]";
}

}  // namespace

void write_chrome_trace(const SpanTree& tree, std::ostream& os) {
  emit_chrome_events(tree, os);
  os << "}\n";
}

void write_chrome_trace(const TraceBuffer& trace, std::ostream& os) {
  write_chrome_trace(SpanTree::build(trace.events()), os);
}

void write_flight_record(const TraceBuffer& trace, std::ostream& os,
                         const std::string& reason, std::uint64_t seed,
                         const Timeline* timeline,
                         std::size_t timeline_windows, const Profile* profile) {
  const auto events = trace.events();
  emit_chrome_events(SpanTree::build(events), os);
  os << ",\n\"reason\":\"" << json_escape(reason) << "\",\"seed\":" << seed
     << ",\"buffered_events\":" << events.size()
     << ",\"evicted_events\":" << trace.dropped();
  if (timeline != nullptr) {
    os << ",\n\"timeline_windows\":";
    timeline->write_json_windows(os, timeline_windows);
  }
  if (profile != nullptr) {
    os << ",\n\"hot_handlers\":[";
    const std::size_t k = std::min<std::size_t>(profile->categories.size(), 5);
    for (std::size_t i = 0; i < k; ++i) {
      const auto& e = profile->categories[i];
      if (i != 0) os << ",";
      os << "{\"category\":\"" << json_escape(e.name) << "\",\"self_us\":"
         << json_number(e.self_us) << ",\"events\":" << e.events
         << ",\"share\":" << json_number(e.share) << "}";
    }
    os << "]";
  }
  os << "}\n";
}

std::string prometheus_name(const std::string& prefix,
                            const std::string& name) {
  std::string out = prefix.empty() ? "" : prefix + "_";
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  // Prometheus names must not start with a digit ([a-zA-Z_:] first).
  if (!out.empty() && out.front() >= '0' && out.front() <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

namespace {

// HELP text escaping per the exposition format: backslash and newline
// only (double quotes are legal in an unquoted help string).
std::string prometheus_help_text(const MetricsRegistry& registry,
                                 const std::string& name) {
  std::string text = registry.help(name);
  if (text.empty()) text = name;  // dotted name as a minimal description
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void write_prometheus(const MetricsRegistry& registry, std::ostream& os,
                      const std::string& prefix) {
  for (const auto& [name, c] : registry.counters()) {
    const auto pname = prometheus_name(prefix, name);
    os << "# HELP " << pname << " " << prometheus_help_text(registry, name)
       << "\n"
       << "# TYPE " << pname << " counter\n"
       << pname << " " << c->value() << "\n";
  }
  for (const auto& [name, h] : registry.histograms()) {
    const auto pname = prometheus_name(prefix, name);
    os << "# HELP " << pname << " " << prometheus_help_text(registry, name)
       << "\n"
       << "# TYPE " << pname << " histogram\n";
    const auto& bounds = h->bounds();
    const auto buckets = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += buckets[i];
      os << pname << "_bucket{le=\"" << json_number(bounds[i]) << "\"} "
         << cumulative << "\n";
    }
    cumulative += buckets.back();
    os << pname << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    os << pname << "_sum " << json_number(h->sum()) << "\n";
    os << pname << "_count " << h->count() << "\n";
  }
}

}  // namespace roads::obs

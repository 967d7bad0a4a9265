#include "obs/span_tree.h"

#include <algorithm>

namespace roads::obs {

namespace {

SpanCategory category_for_label(std::string_view label,
                                std::uint64_t parent) {
  if (parent == 0) return SpanCategory::kRoot;
  if (label == "proc") return SpanCategory::kProcessing;
  if (label == "service") return SpanCategory::kService;
  return SpanCategory::kOther;
}

void fill_links(Span& s, const TraceEvent& ev) {
  if (s.trace == 0) s.trace = ev.trace;
  if (s.parent == 0) s.parent = ev.parent;
}

}  // namespace

const char* to_string(SpanCategory category) {
  switch (category) {
    case SpanCategory::kRoot:
      return "root";
    case SpanCategory::kNetwork:
      return "network";
    case SpanCategory::kProcessing:
      return "processing";
    case SpanCategory::kService:
      return "service";
    case SpanCategory::kOther:
      return "other";
  }
  return "?";
}

SpanTree SpanTree::build(const std::vector<TraceEvent>& events) {
  SpanTree tree;
  auto& spans = tree.spans_;
  // Every span is first seen in some event and every marker is one
  // event, so these reserves are never outgrown and a span never moves
  // while it is being filled.
  spans.reserve(events.size());
  tree.markers_.reserve(events.size());
  // Build-time id -> index table: open addressing with linear probing,
  // a power of two at least twice the event count, so at most half full.
  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  std::size_t mask = 7;
  while (mask < 2 * events.size()) mask = 2 * mask + 1;
  std::vector<std::uint32_t> table(mask + 1, kEmpty);
  bool ascending = true;
  // Fetches the span, appending a placeholder when it is first seen
  // (its begin event may have been evicted from the buffer).
  const auto slot = [&](std::uint64_t id) -> Span& {
    std::size_t i = (id * 0x9e3779b97f4a7c15ull >> 32) & mask;
    for (; table[i] != kEmpty; i = (i + 1) & mask) {
      if (spans[table[i]].id == id) return spans[table[i]];
    }
    table[i] = static_cast<std::uint32_t>(spans.size());
    ascending = ascending && (spans.empty() || spans.back().id < id);
    Span& s = spans.emplace_back();
    s.id = id;
    return s;
  };
  for (const auto& ev : events) {
    if (ev.span == 0) continue;  // untraced legacy stream
    switch (ev.kind) {
      case TraceKind::kSend: {
        auto& s = slot(ev.span);
        if (s.start_us < 0) s.start_us = ev.at_us;
        s.node = ev.node;
        s.peer = ev.peer;
        s.bytes = ev.bytes;
        s.category = SpanCategory::kNetwork;
        s.label = ev.label;
        fill_links(s, ev);
        break;
      }
      case TraceKind::kDeliver: {
        auto& s = slot(ev.span);
        if (!s.closed()) s.end_us = ev.at_us;  // keep first delivery
        if (s.category == SpanCategory::kOther) {
          s.category = SpanCategory::kNetwork;
          s.node = ev.node;
          s.peer = ev.peer;
          s.bytes = ev.bytes;
          s.label = ev.label;
        }
        fill_links(s, ev);
        break;
      }
      case TraceKind::kDrop: {
        auto& s = slot(ev.span);
        if (!s.closed()) {
          s.end_us = ev.at_us;
          s.dropped = true;
        }
        fill_links(s, ev);
        break;
      }
      case TraceKind::kSpanBegin: {
        auto& s = slot(ev.span);
        if (s.start_us < 0) s.start_us = ev.at_us;
        s.node = ev.node;
        s.label = ev.label;
        fill_links(s, ev);
        s.category = category_for_label(ev.label, s.parent);
        break;
      }
      case TraceKind::kSpanEnd: {
        auto& s = slot(ev.span);
        if (!s.closed()) s.end_us = ev.at_us;
        fill_links(s, ev);
        break;
      }
      case TraceKind::kQueryStart: {
        auto& s = slot(ev.span);
        if (s.start_us < 0) s.start_us = ev.at_us;
        s.node = ev.node;
        s.trace = ev.span;  // the query root names its own tree
        s.category = SpanCategory::kRoot;
        s.label = "query";
        break;
      }
      case TraceKind::kQueryComplete: {
        auto& s = slot(ev.span);
        if (!s.closed()) s.end_us = ev.at_us;
        s.trace = ev.span;
        s.category = SpanCategory::kRoot;
        if (s.label.empty()) s.label = "query";
        tree.markers_.push_back(
            {ev.kind, ev.at_us, ev.span, ev.trace, ev.node, ev.value});
        break;
      }
      case TraceKind::kQueryFalsePositive: {
        slot(ev.span).false_positive = true;
        tree.markers_.push_back(
            {ev.kind, ev.at_us, ev.span, ev.trace, ev.node, ev.value});
        break;
      }
      case TraceKind::kQueryHop:
      case TraceKind::kQueryRedirect:
      case TraceKind::kQueryResult:
        tree.markers_.push_back(
            {ev.kind, ev.at_us, ev.span, ev.trace, ev.node, ev.value});
        break;
      default:
        break;  // maintenance transitions carry no span semantics
    }
  }
  if (!ascending) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.id < b.id; });
  }
  return tree;
}

const Span* SpanTree::find(std::uint64_t id) const {
  const auto it = std::lower_bound(
      spans_.begin(), spans_.end(), id,
      [](const Span& s, std::uint64_t want) { return s.id < want; });
  return it != spans_.end() && it->id == id ? &*it : nullptr;
}

std::vector<std::uint64_t> SpanTree::traces() const {
  std::vector<std::uint64_t> out;
  for (const auto& s : spans_) {
    if (s.parent == 0 && s.trace == s.id) out.push_back(s.id);
  }
  return out;
}

namespace {
void sort_by_start(std::vector<const Span*>& spans) {
  std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
    return a->start_us != b->start_us ? a->start_us < b->start_us
                                      : a->id < b->id;
  });
}
}  // namespace

std::vector<const Span*> SpanTree::trace_spans(std::uint64_t trace) const {
  std::vector<const Span*> out;
  for (const auto& s : spans_) {
    if (s.trace == trace) out.push_back(&s);
  }
  sort_by_start(out);
  return out;
}

std::vector<const Span*> SpanTree::children(std::uint64_t id) const {
  std::vector<const Span*> out;
  for (const auto& s : spans_) {
    if (s.parent == id) out.push_back(&s);
  }
  sort_by_start(out);
  return out;
}

std::vector<const Span*> SpanTree::orphans(std::uint64_t trace) const {
  std::vector<const Span*> out;
  for (const auto& s : spans_) {
    if (trace != 0 && s.trace != trace) continue;
    if (s.parent != 0 && find(s.parent) == nullptr) out.push_back(&s);
  }
  sort_by_start(out);
  return out;
}

std::vector<const Span*> SpanTree::unclosed(std::uint64_t trace) const {
  std::vector<const Span*> out;
  for (const auto& s : spans_) {
    if (trace != 0 && s.trace != trace) continue;
    if (!s.closed()) out.push_back(&s);
  }
  sort_by_start(out);
  return out;
}

CriticalPath query_critical_path(const SpanTree& tree, std::uint64_t trace,
                                 QueryEndpoint endpoint) {
  CriticalPath cp;
  const Span* root = tree.find(trace);
  if (root == nullptr || root->start_us < 0) return cp;

  const auto wanted = endpoint == QueryEndpoint::kResponse
                          ? TraceKind::kQueryResult
                          : TraceKind::kQueryHop;
  const SpanMarker* terminal = nullptr;
  for (const auto& m : tree.markers()) {
    if (m.trace != trace || m.kind != wanted) continue;
    if (terminal == nullptr || m.at_us > terminal->at_us) terminal = &m;
  }
  if (terminal == nullptr) return cp;
  cp.terminal_span = terminal->span;
  cp.terminal_at_us = terminal->at_us;

  // Chain from the terminal's span up to the root.
  std::vector<const Span*> chain;
  std::vector<std::uint64_t> visited;  // sorted; stops a parent cycle
  std::uint64_t cur = terminal->span;
  while (cur != 0) {
    const auto seen = std::lower_bound(visited.begin(), visited.end(), cur);
    if (seen != visited.end() && *seen == cur) break;
    visited.insert(seen, cur);
    const Span* s = tree.find(cur);
    if (s == nullptr || s->start_us < 0) return cp;  // history evicted
    chain.push_back(s);
    if (s->id == trace) break;
    cur = s->parent;
  }
  if (chain.empty() || chain.back()->id != trace) return cp;
  std::reverse(chain.begin(), chain.end());

  // A network span is a false-positive detour when the handler span it
  // fed (its child on the chain side) flagged a summary false positive
  // — or when the flag landed on the transit span itself.
  std::vector<std::uint64_t> detour_feeders;  // sorted
  for (const auto& s : tree.spans()) {
    if (s.false_positive && s.parent != 0) detour_feeders.push_back(s.parent);
  }
  std::sort(detour_feeders.begin(), detour_feeders.end());

  // Partition [root start, terminal] walking chain boundaries: the
  // region a span covers is attributed to its category, any region
  // where the chain had no span open is queueing. Boundaries advance
  // monotonically, so the four phases sum to terminal - start exactly.
  const std::int64_t started = root->start_us;
  const std::int64_t terminal_at = terminal->at_us;
  cp.total_us = terminal_at - started;
  std::int64_t cursor = started;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Span* s = chain[i];
    const std::int64_t boundary =
        i + 1 < chain.size() ? std::max(chain[i + 1]->start_us, cursor)
                             : std::max(terminal_at, cursor);
    const std::int64_t begin = std::clamp(s->start_us, cursor, boundary);
    const std::int64_t close = s->closed() ? s->end_us : boundary;
    const std::int64_t end = std::clamp(close, begin, boundary);
    cp.queueing_us += (begin - cursor) + (boundary - end);
    const std::int64_t covered = end - begin;
    if (s->category == SpanCategory::kNetwork) {
      ++cp.hops;
      const bool detour =
          s->false_positive || std::binary_search(detour_feeders.begin(),
                                                  detour_feeders.end(), s->id);
      (detour ? cp.detour_us : cp.network_us) += covered;
    } else {
      cp.processing_us += covered;
    }
    cursor = boundary;
  }
  cp.complete = true;
  return cp;
}

}  // namespace roads::obs

// Causal-tracing tests: SpanTree reconstruction from the flat event
// stream, critical-path decomposition (exact partition of the measured
// latency), the Chrome trace-event exporter (golden shape + validity of
// real federation dumps, checked with util::json), and the end-to-end
// property that every query run through a federation reconstructs into
// a complete parent-before-child span tree.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/span_tree.h"
#include "obs/trace.h"
#include "record/query.h"
#include "roads/federation.h"
#include "util/json.h"
#include "util/rng.h"

namespace roads {
namespace {

using core::ExportMode;
using core::Federation;
using core::FederationParams;
using record::Predicate;
using record::Query;

obs::TraceEvent make_event(std::int64_t at_us, obs::TraceKind kind,
                           std::uint64_t span, std::uint64_t trace,
                           std::uint64_t parent, std::uint32_t node = 0) {
  obs::TraceEvent ev;
  ev.at_us = at_us;
  ev.kind = kind;
  ev.span = span;
  ev.trace = trace;
  ev.parent = parent;
  ev.node = node;
  return ev;
}

// --- SpanTree reconstruction ---

TEST(SpanTree, ReconstructsParentChildSpansFromEventStream) {
  std::vector<obs::TraceEvent> events;
  // Root span 1 ("summary_refresh"), network child 2, proc grandchild 3.
  auto root = make_event(100, obs::TraceKind::kSpanBegin, 1, 1, 0, 5);
  root.label = "summary_refresh";
  events.push_back(root);
  auto send = make_event(100, obs::TraceKind::kSend, 2, 1, 1, 5);
  send.peer = 6;
  send.bytes = 64;
  send.label = "update";
  events.push_back(send);
  auto deliver = make_event(180, obs::TraceKind::kDeliver, 2, 1, 1, 5);
  deliver.peer = 6;
  events.push_back(deliver);
  auto proc = make_event(180, obs::TraceKind::kSpanBegin, 3, 1, 2, 6);
  proc.label = "proc";
  events.push_back(proc);
  events.push_back(make_event(200, obs::TraceKind::kSpanEnd, 3, 1, 0));
  events.push_back(make_event(200, obs::TraceKind::kSpanEnd, 1, 1, 0));

  const auto tree = obs::SpanTree::build(events);
  ASSERT_EQ(tree.spans().size(), 3u);
  EXPECT_EQ(tree.traces(), std::vector<std::uint64_t>{1});

  const auto* s1 = tree.find(1);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->category, obs::SpanCategory::kRoot);
  EXPECT_EQ(s1->start_us, 100);
  EXPECT_EQ(s1->end_us, 200);

  const auto* s2 = tree.find(2);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->category, obs::SpanCategory::kNetwork);
  EXPECT_EQ(s2->parent, 1u);
  EXPECT_EQ(s2->peer, 6u);
  EXPECT_EQ(s2->bytes, 64u);
  EXPECT_TRUE(s2->closed());

  const auto* s3 = tree.find(3);
  ASSERT_NE(s3, nullptr);
  EXPECT_EQ(s3->category, obs::SpanCategory::kProcessing);
  EXPECT_EQ(s3->parent, 2u);

  const auto kids = tree.children(1);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0]->id, 2u);
  EXPECT_TRUE(tree.orphans().empty());
  EXPECT_TRUE(tree.unclosed().empty());
}

TEST(SpanTree, FlagsOrphansAndUnclosedSpans) {
  std::vector<obs::TraceEvent> events;
  // Span 9's parent 4 never appears (evicted history); span 9 is also
  // never closed.
  auto lone = make_event(50, obs::TraceKind::kSpanBegin, 9, 2, 4, 1);
  lone.label = "proc";
  events.push_back(lone);
  const auto tree = obs::SpanTree::build(events);
  ASSERT_EQ(tree.orphans().size(), 1u);
  EXPECT_EQ(tree.orphans()[0]->id, 9u);
  ASSERT_EQ(tree.unclosed().size(), 1u);
  EXPECT_EQ(tree.unclosed()[0]->id, 9u);
  // A drop closes the span but marks it dropped.
  events.push_back(make_event(80, obs::TraceKind::kDrop, 9, 2, 0, 1));
  const auto tree2 = obs::SpanTree::build(events);
  EXPECT_TRUE(tree2.unclosed().empty());
  EXPECT_TRUE(tree2.find(9)->dropped);
}

// --- Critical-path decomposition ---

// Hand-built query chain with every phase present:
//   root query span 1 starts t=0
//   transit span 2 (send 0 -> deliver 100), child of 1
//   proc span 3 on the server, begins t=120 (20us queueing gap), ends 300
//   transit span 4 (send 300 -> deliver 450), child of 3 — a detour,
//     because the proc span 5 it fed flagged a false positive
//   hop markers at t=100 (span 2) and t=450 (span 4)
TEST(CriticalPath, PartitionsLatencyExactlyAcrossAllPhases) {
  std::vector<obs::TraceEvent> events;
  events.push_back(make_event(0, obs::TraceKind::kQueryStart, 1, 1, 0, 0));
  auto s2 = make_event(0, obs::TraceKind::kSend, 2, 1, 1, 0);
  s2.label = "query";
  events.push_back(s2);
  auto hop1 = make_event(100, obs::TraceKind::kQueryHop, 2, 1, 0, 3);
  events.push_back(make_event(100, obs::TraceKind::kDeliver, 2, 1, 1, 0));
  events.push_back(hop1);
  auto proc = make_event(120, obs::TraceKind::kSpanBegin, 3, 1, 2, 3);
  proc.label = "proc";
  events.push_back(proc);
  auto s4 = make_event(300, obs::TraceKind::kSend, 4, 1, 3, 3);
  s4.label = "query";
  events.push_back(s4);
  events.push_back(make_event(300, obs::TraceKind::kSpanEnd, 3, 1, 0));
  events.push_back(make_event(450, obs::TraceKind::kDeliver, 4, 1, 3, 3));
  auto hop2 = make_event(450, obs::TraceKind::kQueryHop, 4, 1, 0, 7);
  events.push_back(hop2);
  auto fp_proc = make_event(450, obs::TraceKind::kSpanBegin, 5, 1, 4, 7);
  fp_proc.label = "proc";
  events.push_back(fp_proc);
  events.push_back(
      make_event(460, obs::TraceKind::kQueryFalsePositive, 5, 1, 0, 7));
  events.push_back(make_event(470, obs::TraceKind::kSpanEnd, 5, 1, 0));
  events.push_back(make_event(470, obs::TraceKind::kQueryComplete, 1, 1, 0));

  const auto tree = obs::SpanTree::build(events);
  const auto cp =
      obs::query_critical_path(tree, 1, obs::QueryEndpoint::kForwarding);
  ASSERT_TRUE(cp.complete);
  EXPECT_EQ(cp.terminal_span, 4u);
  EXPECT_EQ(cp.total_us, 450);
  EXPECT_EQ(cp.network_us, 100);    // span 2
  EXPECT_EQ(cp.queueing_us, 20);    // deliver 100 -> proc begin 120
  EXPECT_EQ(cp.processing_us, 180); // span 3: 120 -> 300
  EXPECT_EQ(cp.detour_us, 150);     // span 4 fed the false-positive hop
  EXPECT_EQ(cp.hops, 2u);
  EXPECT_EQ(cp.network_us + cp.processing_us + cp.queueing_us + cp.detour_us,
            cp.total_us);
}

TEST(CriticalPath, ResponseEndpointChainsFromLastResultMarker) {
  std::vector<obs::TraceEvent> events;
  events.push_back(make_event(0, obs::TraceKind::kQueryStart, 1, 1, 0, 0));
  auto s2 = make_event(0, obs::TraceKind::kSend, 2, 1, 1, 0);
  events.push_back(s2);
  events.push_back(make_event(100, obs::TraceKind::kDeliver, 2, 1, 1, 0));
  events.push_back(make_event(100, obs::TraceKind::kQueryHop, 2, 1, 0, 3));
  // Service span, then the result transit back to the client.
  auto svc = make_event(100, obs::TraceKind::kSpanBegin, 3, 1, 2, 3);
  svc.label = "service";
  events.push_back(svc);
  auto rs = make_event(600, obs::TraceKind::kSend, 4, 1, 3, 3);
  events.push_back(rs);
  events.push_back(make_event(600, obs::TraceKind::kSpanEnd, 3, 1, 0));
  events.push_back(make_event(700, obs::TraceKind::kDeliver, 4, 1, 3, 3));
  events.push_back(make_event(700, obs::TraceKind::kQueryResult, 4, 1, 0, 0));
  events.push_back(make_event(700, obs::TraceKind::kQueryComplete, 1, 1, 0));

  const auto tree = obs::SpanTree::build(events);
  const auto fwd =
      obs::query_critical_path(tree, 1, obs::QueryEndpoint::kForwarding);
  ASSERT_TRUE(fwd.complete);
  EXPECT_EQ(fwd.total_us, 100);  // last hop arrival
  const auto resp =
      obs::query_critical_path(tree, 1, obs::QueryEndpoint::kResponse);
  ASSERT_TRUE(resp.complete);
  EXPECT_EQ(resp.total_us, 700);
  EXPECT_EQ(resp.network_us, 200);     // both transits
  EXPECT_EQ(resp.processing_us, 500);  // the service span
  EXPECT_EQ(resp.queueing_us, 0);
  EXPECT_EQ(resp.detour_us, 0);
}

TEST(CriticalPath, IncompleteWithoutTerminalOrWithBrokenChain) {
  std::vector<obs::TraceEvent> events;
  events.push_back(make_event(0, obs::TraceKind::kQueryStart, 1, 1, 0, 0));
  const auto no_hops = obs::SpanTree::build(events);
  EXPECT_FALSE(
      obs::query_critical_path(no_hops, 1, obs::QueryEndpoint::kForwarding)
          .complete);
  // A hop marker whose span's ancestry was evicted (parent 99 has no
  // begin event => placeholder with start_us = -1) breaks the chain.
  auto s2 = make_event(10, obs::TraceKind::kSend, 2, 1, 99, 0);
  events.push_back(s2);
  events.push_back(make_event(50, obs::TraceKind::kDeliver, 2, 1, 99, 0));
  events.push_back(make_event(50, obs::TraceKind::kQueryHop, 2, 1, 0, 3));
  events.push_back(make_event(60, obs::TraceKind::kSpanEnd, 99, 1, 0));
  const auto broken = obs::SpanTree::build(events);
  EXPECT_FALSE(
      obs::query_critical_path(broken, 1, obs::QueryEndpoint::kForwarding)
          .complete);
}

// --- Reading one trace from a mark onwards ---

/// Records an event of `trace` whose at_us is its recording position.
void record_numbered(obs::TraceBuffer& ring, std::uint64_t trace) {
  ring.record(make_event(static_cast<std::int64_t>(ring.recorded()),
                         obs::TraceKind::kSpanBegin, trace, trace, 0));
}

std::vector<std::int64_t> positions(const std::vector<obs::TraceEvent>& evs) {
  std::vector<std::int64_t> out;
  for (const auto& ev : evs) out.push_back(ev.at_us);
  return out;
}

/// trace_events(t, mark) is the part of trace_events(t) recorded at or
/// after `mark`, for each of the three interleaved traces.
void expect_slice_from(const obs::TraceBuffer& ring, std::uint64_t mark) {
  for (std::uint64_t t = 1; t <= 3; ++t) {
    std::vector<std::int64_t> want;
    for (const auto pos : positions(ring.trace_events(t))) {
      if (static_cast<std::uint64_t>(pos) >= mark) want.push_back(pos);
    }
    EXPECT_EQ(positions(ring.trace_events(t, mark)), want)
        << "trace " << t << " since " << mark;
  }
}

TEST(TraceBuffer, TraceEventsSinceAMarkReadOnlyWhatFollowsIt) {
  obs::TraceBuffer ring(8);
  EXPECT_EQ(ring.recorded(), 0u);
  for (std::uint64_t i = 0; i < 5; ++i) record_numbered(ring, 1 + i % 3);
  const std::uint64_t early = ring.recorded();
  for (std::uint64_t i = 0; i < 15; ++i) record_numbered(ring, 1 + i % 3);
  ASSERT_EQ(ring.recorded(), 20u);
  ASSERT_EQ(ring.size(), 8u);
  ASSERT_EQ(ring.dropped(), 12u);

  // A mark older than the oldest buffered event (position 12) reads
  // from the oldest one.
  for (std::uint64_t t = 1; t <= 3; ++t) {
    EXPECT_EQ(positions(ring.trace_events(t, early)),
              positions(ring.trace_events(t)));
  }
  for (std::uint64_t mark = 0; mark <= ring.recorded() + 2; ++mark) {
    expect_slice_from(ring, mark);
  }
  // A mark equal to recorded() reads nothing yet.
  for (std::uint64_t t = 1; t <= 3; ++t) {
    EXPECT_TRUE(ring.trace_events(t, ring.recorded()).empty());
  }

  // clear() empties the ring, but the count keeps going, so a mark
  // taken before it still splits what is recorded after it.
  const std::uint64_t before_clear = ring.recorded();
  record_numbered(ring, 1);
  ring.clear();
  EXPECT_EQ(ring.recorded(), before_clear + 1);
  for (std::uint64_t i = 0; i < 6; ++i) record_numbered(ring, 1 + i % 3);
  EXPECT_EQ(positions(ring.trace_events(1, before_clear)),
            (std::vector<std::int64_t>{21, 24}));
  for (std::uint64_t mark = before_clear; mark <= ring.recorded(); ++mark) {
    expect_slice_from(ring, mark);
  }
}

// --- Chrome trace exporter ---

TEST(ChromeExport, GoldenSmallTrace) {
  obs::TraceBuffer trace(16);
  auto root = make_event(100, obs::TraceKind::kSpanBegin, 1, 1, 0, 0);
  root.label = "summary_refresh";
  trace.record(root);
  auto send = make_event(100, obs::TraceKind::kSend, 2, 1, 1, 0);
  send.peer = 1;
  send.bytes = 32;
  send.label = "update";
  trace.record(send);
  auto deliver = make_event(150, obs::TraceKind::kDeliver, 2, 1, 1, 0);
  deliver.peer = 1;
  trace.record(deliver);
  trace.record(make_event(150, obs::TraceKind::kSpanEnd, 1, 1, 0));

  std::ostringstream os;
  obs::write_chrome_trace(trace, os);
  EXPECT_EQ(
      os.str(),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"roads-sim\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"node 0\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":100,\"dur\":50,"
      "\"name\":\"summary_refresh\",\"cat\":\"root\","
      "\"args\":{\"span\":1,\"parent\":0,\"trace\":1}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":100,\"dur\":50,"
      "\"name\":\"net:update\",\"cat\":\"network\","
      "\"args\":{\"span\":2,\"parent\":1,\"trace\":1,\"peer\":1,"
      "\"bytes\":32}}\n"
      "]}\n");
}

// --- End-to-end: federation runs produce valid, complete trees ---

FederationParams traced_params(std::size_t trace_capacity) {
  FederationParams p;
  p.schema = record::Schema::uniform_numeric(4);
  p.seed = 11;
  p.config.max_children = 3;
  p.config.summary.histogram_buckets = 50;
  p.config.summary_refresh_period = sim::seconds(10);
  p.config.summary_ttl = sim::seconds(35);
  p.trace_capacity = trace_capacity;
  return p;
}

/// n servers, one identifiable record per server (attr0 = (i+0.5)/n).
void seed_identifiable(Federation& fed, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<sim::NodeId>(i);
    auto owner = fed.add_owner(node, ExportMode::kDetailedRecords);
    std::vector<record::AttributeValue> values;
    values.emplace_back((static_cast<double>(i) + 0.5) /
                        static_cast<double>(n));
    for (std::size_t a = 1; a < 4; ++a) values.emplace_back(0.5);
    owner->store().insert(record::ResourceRecord(
        static_cast<record::RecordId>(i), owner->id(), std::move(values)));
    fed.server(node).attach_owner(owner, ExportMode::kDetailedRecords);
  }
}

TEST(TraceEndToEnd, EveryQuerySpanHasAnEarlierExistingParent) {
  Federation fed(traced_params(std::size_t{1} << 15));
  fed.add_servers(12);
  seed_identifiable(fed, 12);
  fed.start();
  fed.stabilize();
  fed.set_refresh_paused(true);

  for (int i = 0; i < 6; ++i) {
    Query q;
    q.add(Predicate::range(0, i / 12.0, (i + 3) / 12.0));
    const auto out =
        fed.run_query(q, static_cast<sim::NodeId>((i * 5) % 12));
    ASSERT_TRUE(out.complete);
    ASSERT_NE(out.trace_id, 0u);

    const auto tree = obs::SpanTree::build(fed.trace()->events());
    const auto spans = tree.trace_spans(out.trace_id);
    ASSERT_FALSE(spans.empty());
    EXPECT_TRUE(tree.orphans(out.trace_id).empty());
    for (const auto* s : spans) {
      if (s->parent == 0) {
        EXPECT_EQ(s->id, out.trace_id);  // sole root: the query span
        continue;
      }
      const auto* parent = tree.find(s->parent);
      ASSERT_NE(parent, nullptr)
          << "span " << s->id << " orphaned (parent " << s->parent << ")";
      EXPECT_EQ(parent->trace, s->trace);
      EXPECT_LE(parent->start_us, s->start_us)
          << "parent " << parent->id << " starts after child " << s->id;
    }

    // The decomposition must partition the measured latency exactly.
    ASSERT_TRUE(out.forwarding_path.has_value());
    ASSERT_TRUE(out.forwarding_path->complete);
    const auto want =
        static_cast<std::int64_t>(std::llround(out.latency_ms * 1000.0));
    EXPECT_NEAR(static_cast<double>(out.forwarding_path->total_us),
                static_cast<double>(want), 1.0);
    EXPECT_EQ(out.forwarding_path->network_us +
                  out.forwarding_path->processing_us +
                  out.forwarding_path->queueing_us +
                  out.forwarding_path->detour_us,
              out.forwarding_path->total_us);
  }
}

TEST(TraceEndToEnd, MaintenanceWavesFormTheirOwnTrees) {
  auto params = traced_params(std::size_t{1} << 15);
  params.config.maintenance_enabled = true;
  params.config.heartbeat_period = sim::seconds(5);
  Federation fed(params);
  fed.add_servers(8);
  seed_identifiable(fed, 8);
  fed.start();
  fed.advance(sim::seconds(30));

  // Nothing was evicted, so the buffer holds complete history: every
  // span's parent must be present — an orphan would be a context
  // propagation bug, not lost history.
  ASSERT_EQ(fed.trace()->dropped(), 0u);
  const auto tree = obs::SpanTree::build(fed.trace()->events());
  EXPECT_TRUE(tree.orphans().empty());
  // Joins, refresh waves and heartbeat waves each root their own tree.
  EXPECT_GT(tree.traces().size(), 8u);
  std::size_t roots_with_children = 0;
  for (const auto root : tree.traces()) {
    if (!tree.children(root).empty()) ++roots_with_children;
  }
  EXPECT_GT(roots_with_children, 0u);
}

// The admission queue is the one hand-off outside the event queue: a
// query dequeued when another finishes must open its processing span in
// its own tree, not in the finishing query's (cache on) and not as a
// fresh root (cache off).
TEST(TraceEndToEnd, QueuedQueriesKeepTheirOwnTrace) {
  for (const bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    auto params = traced_params(std::size_t{1} << 16);
    params.seed = 7;
    params.config.query_concurrency_limit = 1;
    params.config.query_cache_enabled = cache;
    Federation fed(params);
    fed.add_servers(8);
    seed_identifiable(fed, 8);
    fed.start();
    fed.stabilize();
    fed.set_refresh_paused(true);

    Query q;
    q.add(Predicate::range(0, 0.0, 1.0));
    const sim::NodeId start = 5;
    std::vector<std::shared_ptr<core::RoadsClient>> clients;
    for (int i = 0; i < 4; ++i) clients.push_back(fed.issue_query(q, start));
    fed.advance(sim::seconds(5));

    ASSERT_EQ(fed.trace()->dropped(), 0u);
    const auto tree = obs::SpanTree::build(fed.trace()->events());
    for (const auto& client : clients) {
      ASSERT_TRUE(client->done());
      EXPECT_TRUE(tree.orphans(client->span()).empty());
      std::size_t start_procs = 0;
      for (const auto* s : tree.trace_spans(client->span())) {
        if (s->label == "proc" && s->node == start) ++start_procs;
      }
      EXPECT_EQ(start_procs, 1u) << "query trace " << client->span();
    }
  }
}

// A negative-cache hit sends the same empty false-positive reply a cold
// evaluation sends, so its processing span carries the false-positive
// marker that the critical-path analyzer reads as detour time.
TEST(TraceEndToEnd, NegativeCacheHitMarksItsSpanAsFalsePositive) {
  auto params = traced_params(std::size_t{1} << 15);
  params.config.query_cache_enabled = true;
  constexpr std::size_t kServers = 12;
  Federation fed(params);
  fed.add_servers(kServers);
  seed_identifiable(fed, kServers);
  fed.start();
  fed.stabilize();
  fed.set_refresh_paused(true);

  // Rewrite a leaf's record out of band: the summary its parent holds
  // still claims the old value, so a query for that value is steered
  // to the leaf and finds nothing there.
  const auto topo = fed.topology();
  sim::NodeId leaf = topo.root();
  for (sim::NodeId i = 0; i < kServers; ++i) {
    if (i != topo.root() && topo.is_leaf(i)) leaf = i;
  }
  ASSERT_NE(leaf, topo.root());
  auto& store = fed.server(leaf).local_store();
  auto record = store.get(leaf);
  const double old_value = record.value(0).number();
  record.set_value(0, record::AttributeValue(old_value + 0.04));
  store.update(record);
  Query q;
  q.add(Predicate::range(0, old_value - 0.01, old_value + 0.01));

  auto& metrics = fed.network().metrics();
  const auto& neg_hits = metrics.counter("roads.query.cache.neg_hit");
  const auto& false_positives =
      metrics.counter("roads.query.false_positives");
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "negative-cache hit" : "cold evaluation");
    const auto hits_before = neg_hits.value();
    const auto fps_before = false_positives.value();
    const auto out = fed.run_query(q, topo.root());
    ASSERT_TRUE(out.complete);
    EXPECT_EQ(out.matching_records, 0u);
    EXPECT_EQ(neg_hits.value() - hits_before, cached ? 1u : 0u);
    EXPECT_EQ(false_positives.value() - fps_before, 1u);

    const auto tree =
        obs::SpanTree::build(fed.trace()->trace_events(out.trace_id));
    std::size_t marked = 0;
    for (const auto* s : tree.trace_spans(out.trace_id)) {
      if (s->false_positive) {
        EXPECT_EQ(s->node, leaf);
        ++marked;
      }
    }
    EXPECT_EQ(marked, 1u);
  }
}

// A timer armed inside a handler runs in that handler's tree: the join
// request to a dead server times out after 2 s, and the retry it sends
// continues the join's trace instead of rooting a new one.
TEST(TraceEndToEnd, JoinRetryAfterTimeoutStaysInTheJoinTrace) {
  FederationParams params;
  params.schema = record::Schema::uniform_numeric(4);
  params.seed = 7;
  params.config.max_children = 2;
  params.trace_capacity = std::size_t{1} << 16;
  Federation fed(params);
  fed.add_servers(3);
  fed.server(1).fail();  // the joiner below gets steered here
  fed.trace()->clear();
  const auto joiner = fed.add_server().id();

  std::set<std::uint64_t> traces;
  std::size_t sends = 0;
  bool lost_at_dead_server = false;  // the request that had to time out
  for (const auto& ev : fed.trace()->events_of(obs::TraceKind::kSend)) {
    if (ev.node != joiner || ev.label != "control") continue;
    ++sends;
    traces.insert(ev.trace);
  }
  for (const auto& ev : fed.trace()->events_of(obs::TraceKind::kDrop)) {
    lost_at_dead_server |= ev.node == joiner && ev.peer == 1;
  }
  ASSERT_TRUE(lost_at_dead_server);
  ASSERT_GE(sends, 3u);  // request, request to the dead server, retry
  EXPECT_EQ(traces.size(), 1u);
}

void expect_same_path(const obs::CriticalPath& got,
                      const obs::CriticalPath& want) {
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.total_us, want.total_us);
  EXPECT_EQ(got.network_us, want.network_us);
  EXPECT_EQ(got.processing_us, want.processing_us);
  EXPECT_EQ(got.queueing_us, want.queueing_us);
  EXPECT_EQ(got.detour_us, want.detour_us);
  EXPECT_EQ(got.hops, want.hops);
  EXPECT_EQ(got.terminal_span, want.terminal_span);
  EXPECT_EQ(got.terminal_at_us, want.terminal_at_us);
}

/// What run_query reports, recomputed from a tree over the whole ring.
void expect_paths_match_whole_ring(const Federation& fed,
                                   const core::QueryOutcome& out) {
  const auto tree = obs::SpanTree::build(fed.trace()->events());
  ASSERT_TRUE(out.forwarding_path.has_value());
  expect_same_path(*out.forwarding_path,
                   obs::query_critical_path(tree, out.trace_id,
                                            obs::QueryEndpoint::kForwarding));
  const auto response = obs::query_critical_path(
      tree, out.trace_id, obs::QueryEndpoint::kResponse);
  const bool reported = response.complete || response.terminal_span != 0;
  ASSERT_EQ(out.response_path.has_value(), reported);
  if (reported) expect_same_path(*out.response_path, response);
}

// run_query builds a query's span tree from that query's own events
// only. Its critical paths must equal those of a tree over the whole
// ring, with refresh waves and other queries interleaved in the ring and
// queries queueing behind each other at their start server.
TEST(TraceEndToEnd, CriticalPathsFromTheQueryTraceMatchTheWholeRing) {
  auto params = traced_params(std::size_t{1} << 14);
  params.config.collect_results = true;
  params.config.query_concurrency_limit = 1;
  Federation fed(params);
  constexpr std::size_t kServers = 24;
  fed.add_servers(kServers);
  seed_identifiable(fed, kServers);
  fed.start();
  fed.stabilize();

  util::Rng rng(5);
  std::size_t complete_paths = 0;
  for (int i = 0; i < 220; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    Query q;
    const double lo = rng.uniform01() * 0.8;
    q.add(Predicate::range(0, lo, lo + 0.2));
    const auto start =
        static_cast<sim::NodeId>(rng.uniform_int(0, kServers - 1));
    if (i % 2 == 0) {  // two open-loop queries ahead of it at `start`
      Query wide;
      wide.add(Predicate::range(0, 0.0, 1.0));
      fed.issue_query(wide, start);
      fed.issue_query(q, start);
    }
    const auto out = fed.run_query(q, start);
    ASSERT_TRUE(out.complete);
    ASSERT_NE(out.trace_id, 0u);
    expect_paths_match_whole_ring(fed, out);
    if (out.forwarding_path && out.forwarding_path->complete) {
      ++complete_paths;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(complete_paths, 200u);
  // The refresh waves ran between the queries and shared the ring.
  EXPECT_GT(fed.trace()->dropped(), 0u);
}

TEST(TraceEndToEnd, QueryLargerThanTheRingHasNoCompletePathEitherWay) {
  auto params = traced_params(16);
  params.config.collect_results = true;
  Federation fed(params);
  fed.add_servers(12);
  seed_identifiable(fed, 12);
  fed.start();
  fed.stabilize();
  fed.set_refresh_paused(true);

  Query q;
  q.add(Predicate::range(0, 0.0, 1.0));
  const auto out = fed.run_query(q, 5);
  ASSERT_TRUE(out.complete);
  ASSERT_TRUE(out.forwarding_path.has_value());
  EXPECT_FALSE(out.forwarding_path->complete);
  expect_paths_match_whole_ring(fed, out);
}

TEST(ChromeExport, FederationDumpIsValidAndWellOrdered) {
  Federation fed(traced_params(std::size_t{1} << 15));
  fed.add_servers(8);
  seed_identifiable(fed, 8);
  fed.start();
  fed.stabilize();
  for (int i = 0; i < 3; ++i) {
    Query q;
    q.add(Predicate::range(0, 0.0, 1.0));
    ASSERT_TRUE(fed.run_query(q, static_cast<sim::NodeId>(i)).complete);
  }

  std::ostringstream os;
  obs::write_chrome_trace(*fed.trace(), os);
  const auto doc = util::parse_json(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_GT(events.size(), 10u);

  std::int64_t prev_ts = std::numeric_limits<std::int64_t>::min();
  std::map<double, std::string> thread_names;  // tid -> name
  for (const auto& ev : events) {
    const auto& ph = ev.at("ph").as_string();
    EXPECT_EQ(ev.at("pid").as_number(), 1.0);
    if (ph == "M") {
      if (ev.find("tid") != nullptr) {
        thread_names[ev.at("tid").as_number()] =
            ev.at("args").at("name").as_string();
      }
      continue;
    }
    // Only complete (X) and instant (i) events — never unmatched B/E.
    ASSERT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    const auto ts = static_cast<std::int64_t>(ev.at("ts").as_number());
    EXPECT_GE(ts, prev_ts) << "timestamps must be non-decreasing";
    prev_ts = ts;
    const double tid = ev.at("tid").as_number();
    EXPECT_GE(tid, 1.0);
    // Stable mapping: every tid used by an event was named tid = node+1.
    ASSERT_TRUE(thread_names.count(tid) > 0) << "unnamed tid " << tid;
    EXPECT_EQ(thread_names[tid],
              "node " + std::to_string(static_cast<int>(tid) - 1));
    if (ph == "X") {
      EXPECT_GE(ev.at("dur").as_number(), 0.0);
      ASSERT_NE(ev.find("name"), nullptr);
      const auto& args = ev.at("args");
      EXPECT_NE(args.find("span"), nullptr);
      EXPECT_NE(args.find("trace"), nullptr);
    }
  }
}

TEST(FlightRecord, CarriesReasonSeedAndEvictionCounts) {
  obs::TraceBuffer trace(2);
  trace.record(make_event(1, obs::TraceKind::kSend, 1, 1, 0, 0));
  trace.record(make_event(2, obs::TraceKind::kDeliver, 1, 1, 0, 0));
  trace.record(make_event(3, obs::TraceKind::kSend, 2, 1, 0, 0));  // evicts
  std::ostringstream os;
  obs::write_flight_record(trace, os, "invariant \"x\" failed", 4242);
  const auto doc = util::parse_json(os.str());
  EXPECT_EQ(doc.at("reason").as_string(), "invariant \"x\" failed");
  EXPECT_EQ(doc.at("seed").as_number(), 4242.0);
  EXPECT_EQ(doc.at("buffered_events").as_number(), 2.0);
  EXPECT_EQ(doc.at("evicted_events").as_number(), 1.0);
  EXPECT_TRUE(doc.at("traceEvents").is_array());
}

}  // namespace
}  // namespace roads

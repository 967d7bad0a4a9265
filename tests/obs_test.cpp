// Tests for the observability layer: registry semantics and thread
// safety, histogram correctness against util::Samples, trace buffer
// bounds and span filtering, and the exporters' exact output shapes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/probes.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace roads {
namespace {

TEST(Counter, IncrementAndReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketCountsMatchBounds) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // <= 1
  h.record(1.0);    // <= 1 (bounds are inclusive upper edges)
  h.record(5.0);    // <= 10
  h.record(50.0);   // <= 100
  h.record(500.0);  // overflow
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 50.0 + 500.0);
}

TEST(Histogram, QuantilesAgreeWithSamples) {
  obs::Histogram h(obs::default_latency_buckets());
  util::Samples samples;
  // Deliberately unsorted insertion order.
  for (const double x : {9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0}) {
    h.record(x);
    samples.add(x);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.5), samples.percentile(50.0));
  EXPECT_DOUBLE_EQ(h.quantile(0.9), samples.percentile(90.0));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

// The documented windowing contract: take() cuts metering windows
// atomically, so every increment lands in exactly one window — the sum
// of all take() results plus the final value equals the total number of
// increments even with writers running through the cuts.
TEST(Counter, TakeWindowsLoseNoIncrementsUnderContention) {
  obs::Counter c;
  constexpr std::size_t kWriters = 8;
  constexpr std::size_t kPerWriter = 50'000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> taken{0};
  std::thread cutter([&] {
    while (!done.load(std::memory_order_acquire)) {
      taken.fetch_add(c.take(), std::memory_order_relaxed);
    }
  });
  {
    util::ThreadPool pool(4);
    pool.parallel_for(kWriters, [&c](std::size_t) {
      for (std::size_t k = 0; k < kPerWriter; ++k) c.inc();
    });
  }
  done.store(true, std::memory_order_release);
  cutter.join();
  EXPECT_EQ(taken.load() + c.value(), kWriters * kPerWriter);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstrument) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("roads.query.hops");
  obs::Counter& b = registry.counter("roads.query.hops");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  obs::Histogram& h1 = registry.histogram("lat", {1.0, 2.0});
  obs::Histogram& h2 = registry.histogram("lat", {99.0});  // bounds ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsRegistry, ConcurrentRecordingFromThreadPool) {
  obs::MetricsRegistry registry;
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&registry](std::size_t i) {
    // Every task resolves instruments by name (exercises registry
    // locking) and then records (exercises instrument concurrency).
    obs::Counter& c = registry.counter("shared.counter");
    obs::Histogram& h = registry.histogram("shared.hist");
    for (std::size_t k = 0; k < kPerTask; ++k) {
      c.inc();
      h.record(static_cast<double>(i));
    }
  });
  EXPECT_EQ(registry.counter("shared.counter").value(), kTasks * kPerTask);
  EXPECT_EQ(registry.histogram("shared.hist").count(), kTasks * kPerTask);
}

TEST(MetricsRegistry, SnapshotFlattensInstruments) {
  obs::MetricsRegistry registry;
  registry.counter("c").inc(7);
  obs::Histogram& h = registry.histogram("h");
  h.record(10.0);
  h.record(20.0);
  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.get("c"), 7.0);
  EXPECT_DOUBLE_EQ(snap.get("h.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.get("h.mean"), 15.0);
  EXPECT_DOUBLE_EQ(snap.get("h.max"), 20.0);
  EXPECT_TRUE(snap.has("h.p50"));
  EXPECT_TRUE(snap.has("h.p90"));
  EXPECT_TRUE(snap.has("h.p99"));
}

TEST(MetricsRegistry, ResetCountersLeavesHistograms) {
  obs::MetricsRegistry registry;
  registry.counter("c").inc(5);
  registry.histogram("h").record(1.0);
  registry.reset_counters();
  EXPECT_EQ(registry.counter("c").value(), 0u);
  EXPECT_EQ(registry.histogram("h").count(), 1u);
}

TEST(ScopedTimer, RecordsElapsedWithInjectedClock) {
  obs::Histogram h(obs::default_latency_buckets());
  double now = 100.0;
  {
    obs::ScopedTimer timer(h, [&now] { return now; });
    now = 130.0;
  }
  ASSERT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
}

TEST(TraceBuffer, BoundedEviction) {
  obs::TraceBuffer trace(4);
  for (int i = 0; i < 6; ++i) {
    obs::TraceEvent ev;
    ev.at_us = i;
    ev.kind = obs::TraceKind::kSend;
    trace.record(ev);
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 2u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (t=0, t=1) were evicted.
  EXPECT_EQ(events.front().at_us, 2);
  EXPECT_EQ(events.back().at_us, 5);
}

TEST(TraceBuffer, SpanAndKindFiltering) {
  obs::TraceBuffer trace(16);
  const auto span = trace.next_span();
  EXPECT_EQ(span, 1u);
  obs::TraceEvent start;
  start.kind = obs::TraceKind::kQueryStart;
  start.span = span;
  trace.record(start);
  obs::TraceEvent other;
  other.kind = obs::TraceKind::kJoin;
  trace.record(other);
  obs::TraceEvent hop;
  hop.kind = obs::TraceKind::kQueryHop;
  hop.span = span;
  hop.value = 12.5;
  trace.record(hop);
  const auto span_events = trace.span_events(span);
  ASSERT_EQ(span_events.size(), 2u);
  EXPECT_EQ(span_events[0].kind, obs::TraceKind::kQueryStart);
  EXPECT_EQ(span_events[1].kind, obs::TraceKind::kQueryHop);
  EXPECT_EQ(trace.events_of(obs::TraceKind::kJoin).size(), 1u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  // Span ids keep advancing across clear().
  EXPECT_EQ(trace.next_span(), 2u);
}

TEST(TraceBuffer, DroppedPerKindAndBoundCounters) {
  obs::TraceBuffer trace(2);
  const auto put = [&trace](obs::TraceKind kind) {
    obs::TraceEvent ev;
    ev.kind = kind;
    trace.record(ev);
  };
  // Fill, then evict: 3 sends + 2 delivers through a 2-slot ring
  // evicts the 3 oldest events — all sends (FIFO); the delivers stay
  // buffered.
  put(obs::TraceKind::kSend);
  put(obs::TraceKind::kSend);
  put(obs::TraceKind::kSend);
  put(obs::TraceKind::kDeliver);
  put(obs::TraceKind::kDeliver);
  EXPECT_EQ(trace.dropped(), 3u);
  EXPECT_EQ(trace.dropped(obs::TraceKind::kSend), 3u);
  EXPECT_EQ(trace.dropped(obs::TraceKind::kDeliver), 0u);
  EXPECT_EQ(trace.dropped(obs::TraceKind::kJoin), 0u);
  const auto by_kind = trace.dropped_by_kind();
  ASSERT_EQ(by_kind.size(), 1u);
  EXPECT_EQ(by_kind[0].first, obs::TraceKind::kSend);
  EXPECT_EQ(by_kind[0].second, 3u);

  // Late binding back-credits the evictions that already happened...
  obs::MetricsRegistry registry;
  trace.bind_metrics(registry);
  EXPECT_EQ(registry.counter("obs.trace.dropped.send").value(), 3u);
  // ...and live evictions keep the counters in step: the next record
  // evicts the older of the two buffered delivers.
  put(obs::TraceKind::kSend);
  EXPECT_EQ(trace.dropped(obs::TraceKind::kDeliver), 1u);
  EXPECT_EQ(registry.counter("obs.trace.dropped.deliver").value(), 1u);
}

TEST(Export, TraceJsonlGolden) {
  obs::TraceBuffer trace(8);
  obs::TraceEvent ev;
  ev.at_us = 1234;
  ev.kind = obs::TraceKind::kQueryHop;
  ev.span = 7;
  ev.node = 3;
  ev.peer = 9;
  ev.value = 2.5;
  trace.record(ev);
  std::ostringstream os;
  obs::write_trace_jsonl(trace, os);
  EXPECT_EQ(os.str(),
            "{\"t_us\":1234,\"kind\":\"query_hop\",\"node\":3,"
            "\"span\":7,\"peer\":9,\"value\":2.5}\n");
}

TEST(Export, TraceJsonlCausalFields) {
  obs::TraceBuffer trace(8);
  obs::TraceEvent ev;
  ev.at_us = 10;
  ev.kind = obs::TraceKind::kSend;
  ev.span = 5;
  ev.node = 1;
  ev.peer = 2;
  ev.bytes = 64;
  ev.trace = 3;
  ev.parent = 4;
  trace.record(ev);
  std::ostringstream os;
  obs::write_trace_jsonl(trace, os);
  EXPECT_EQ(os.str(),
            "{\"t_us\":10,\"kind\":\"send\",\"node\":1,\"span\":5,"
            "\"peer\":2,\"bytes\":64,\"trace\":3,\"parent\":4}\n");
}

TEST(Export, JsonHelpers) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::json_number(42.0), "42");
  EXPECT_EQ(obs::json_number(2.5), "2.5");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(Export, PrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.counter("net.query.messages").inc(3);
  obs::Histogram& h = registry.histogram("overlay.put_us", {1.0, 10.0});
  h.record(0.5);
  h.record(5.0);
  h.record(50.0);
  std::ostringstream os;
  obs::write_prometheus(registry, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE roads_net_query_messages counter"),
            std::string::npos);
  EXPECT_NE(text.find("roads_net_query_messages 3"), std::string::npos);
  // Cumulative buckets: le="1" -> 1, le="10" -> 2, le="+Inf" -> 3.
  EXPECT_NE(text.find("roads_overlay_put_us_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("roads_overlay_put_us_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("roads_overlay_put_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("roads_overlay_put_us_count 3"), std::string::npos);
  EXPECT_EQ(obs::prometheus_name("roads", "net.query-bytes x"),
            "roads_net_query_bytes_x");
}

TEST(Histogram, EmptyAndSingleSampleQuantiles) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("h", {1.0, 10.0});
  // No samples: quantiles are a defined 0, not UB on an empty reservoir.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);
}

TEST(Export, PrometheusNameSanitizesCharsetAndLeadingDigit) {
  // Invalid characters collapse to '_', valid ones ([a-zA-Z0-9_:])
  // survive, and a leading digit gets a '_' prefix.
  EXPECT_EQ(obs::prometheus_name("", "a:b_C9"), "a:b_C9");
  EXPECT_EQ(obs::prometheus_name("", "weird name!{}"), "weird_name___");
  EXPECT_EQ(obs::prometheus_name("", "3rd.percentile"), "_3rd_percentile");
  EXPECT_EQ(obs::prometheus_name("roads", "9lives"), "roads_9lives");
  // Sanitizing is idempotent: a already-clean name passes through.
  const auto once = obs::prometheus_name("", "99.9%-tile");
  EXPECT_EQ(obs::prometheus_name("", once), once);
  // Round trip: a registry holding a hostile instrument name still
  // produces exposition lines under the sanitized name.
  obs::MetricsRegistry registry;
  registry.counter("9lives again!").inc(2);
  std::ostringstream os;
  obs::write_prometheus(registry, os);
  EXPECT_NE(os.str().find("# TYPE roads_9lives_again_ counter"),
            std::string::npos);
  EXPECT_NE(os.str().find("roads_9lives_again_ 2"), std::string::npos);
}

TEST(Timeline, WindowedRatesTrackBurstyCounter) {
  obs::MetricsRegistry registry;
  // Increments before tracking starts must not pollute the first delta.
  registry.counter("c").inc(7);
  obs::TimelineConfig cfg;
  cfg.window = sim::seconds(1);
  obs::Timeline tl(registry, cfg);
  tl.track_counter("c");
  obs::Counter& c = registry.counter("c");

  c.inc(100);
  tl.tick(sim::seconds(1));  // burst window
  tl.tick(sim::seconds(2));  // idle window
  c.inc(50);
  tl.tick(sim::seconds(4));  // late tick: 2 s span halves the rate

  ASSERT_EQ(tl.windows().size(), 3u);
  EXPECT_DOUBLE_EQ(tl.windows()[0].value("delta.c"), 100.0);
  EXPECT_DOUBLE_EQ(tl.windows()[0].value("rate.c"), 100.0);
  EXPECT_DOUBLE_EQ(tl.windows()[1].value("delta.c"), 0.0);
  EXPECT_DOUBLE_EQ(tl.windows()[1].value("rate.c"), 0.0);
  EXPECT_DOUBLE_EQ(tl.windows()[2].value("delta.c"), 50.0);
  EXPECT_DOUBLE_EQ(tl.windows()[2].value("rate.c"), 25.0);
  EXPECT_EQ(tl.windows()[2].start, sim::seconds(2));
  EXPECT_EQ(tl.windows()[2].end, sim::seconds(4));
}

TEST(Timeline, RingEvictsOldestWindows) {
  obs::MetricsRegistry registry;
  obs::TimelineConfig cfg;
  cfg.capacity = 4;
  obs::Timeline tl(registry, cfg);
  for (int i = 1; i <= 6; ++i) tl.tick(sim::seconds(i));
  EXPECT_EQ(tl.windows().size(), 4u);
  EXPECT_EQ(tl.evicted(), 2u);
  EXPECT_EQ(tl.windows_closed(), 6u);
  EXPECT_EQ(tl.windows().front().index, 2u);  // 0 and 1 evicted
  EXPECT_EQ(tl.windows().back().index, 5u);
}

TEST(Timeline, WindowedHistogramQuantilesFromBucketDeltas) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("h", {10.0, 20.0, 40.0});
  obs::TimelineConfig cfg;
  obs::Timeline tl(registry, cfg);
  tl.track_histogram("h");

  for (int i = 0; i < 10; ++i) h.record(5.0);
  tl.tick(sim::seconds(1));
  for (int i = 0; i < 10; ++i) h.record(15.0);
  h.record(100.0);  // overflow bucket
  tl.tick(sim::seconds(2));
  tl.tick(sim::seconds(3));  // empty window

  const auto& w0 = tl.windows()[0];
  EXPECT_DOUBLE_EQ(w0.value("h.wcount"), 10.0);
  EXPECT_DOUBLE_EQ(w0.value("h.wmean"), 5.0);
  // All 10 samples in (0, 10]: the median interpolates to mid-bucket.
  EXPECT_DOUBLE_EQ(w0.value("h.wp50"), 5.0);

  const auto& w1 = tl.windows()[1];
  EXPECT_DOUBLE_EQ(w1.value("h.wcount"), 11.0);
  EXPECT_NEAR(w1.value("h.wmean"), 250.0 / 11.0, 1e-9);
  // Window-local quantiles: the first window's 10 samples are gone.
  EXPECT_NEAR(w1.value("h.wp50"), 15.5, 1e-9);
  // p99 lands in the unbounded overflow bucket -> clamps to the top
  // finite bound.
  EXPECT_DOUBLE_EQ(w1.value("h.wp99"), 40.0);

  const auto& w2 = tl.windows()[2];
  EXPECT_DOUBLE_EQ(w2.value("h.wcount"), 0.0);
  EXPECT_DOUBLE_EQ(w2.value("h.wp90"), 0.0);
}

TEST(Timeline, ConvergenceStreaksDeconvergeAndRecover) {
  obs::MetricsRegistry registry;
  obs::TimelineConfig cfg;
  cfg.convergence_windows = 2;
  obs::Timeline tl(registry, cfg);
  bool ok = true;
  tl.add_probe("ok", [&ok](sim::Time) { return ok ? 1.0 : 0.0; });
  tl.add_health_check("ok", [](const obs::TimelineWindow& w) {
    return w.value("probe.ok") > 0.5;
  });

  tl.tick(sim::seconds(1));
  EXPECT_FALSE(tl.converged());  // streak of 1 < W=2
  tl.tick(sim::seconds(2));
  EXPECT_TRUE(tl.converged());
  ASSERT_EQ(tl.convergence_events().size(), 1u);
  EXPECT_EQ(tl.convergence_events()[0].at, sim::seconds(2));

  ok = false;  // disruption: unhealthy window exits convergence
  tl.tick(sim::seconds(3));
  EXPECT_FALSE(tl.converged());
  ok = true;
  tl.tick(sim::seconds(4));
  EXPECT_FALSE(tl.converged());  // streak restarted
  tl.tick(sim::seconds(5));
  EXPECT_TRUE(tl.converged());  // re-convergence = recovery event
  ASSERT_EQ(tl.convergence_events().size(), 2u);

  EXPECT_EQ(tl.first_converged_at(), sim::seconds(2));
  // Time-to-recover after the disruption at t=3s: reconverged at 5s.
  EXPECT_EQ(tl.converged_after(sim::seconds(3)), sim::seconds(5));
  EXPECT_EQ(tl.converged_after(sim::seconds(6)), std::nullopt);
}

TEST(Timeline, FlatRateGatesConvergenceEntryOnly) {
  obs::MetricsRegistry registry;
  obs::TimelineConfig cfg;
  cfg.convergence_windows = 2;
  obs::Timeline tl(registry, cfg);
  tl.require_flat_rate("c", 0.5, 1.0);
  obs::Counter& c = registry.counter("c");

  c.inc(100);
  tl.tick(sim::seconds(1));  // rate 100
  c.inc(10);
  tl.tick(sim::seconds(2));  // rate 10: spread 90 > 0.5 * mean 55
  EXPECT_FALSE(tl.converged());
  c.inc(10);
  tl.tick(sim::seconds(3));  // rates [10, 10]: flat, streak is 3 >= 2
  EXPECT_TRUE(tl.converged());
  c.inc(500);
  tl.tick(sim::seconds(4));  // rate blip while converged: entry-only gate
  EXPECT_TRUE(tl.converged());
  EXPECT_EQ(tl.convergence_events().size(), 1u);
}

TEST(Timeline, CsvAndJsonlCoverEveryWindow) {
  obs::MetricsRegistry registry;
  obs::TimelineConfig cfg;
  obs::Timeline tl(registry, cfg);
  tl.track_counter("c");
  tl.add_node_probe("visits", 2, [](std::uint32_t node, sim::Time) {
    return static_cast<double>(node + 1);
  });
  registry.counter("c").inc(3);
  tl.tick(sim::seconds(1));
  tl.tick(sim::seconds(2));

  std::ostringstream csv;
  tl.write_csv(csv);
  EXPECT_NE(csv.str().find("window,start_s,end_s,healthy,delta.c,rate.c"),
            std::string::npos);
  EXPECT_NE(csv.str().find("0,0,1,1,3,3"), std::string::npos);

  std::ostringstream jsonl;
  tl.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"per_node\":{\"visits\":[1,2]}"),
            std::string::npos);
  // One JSON object per window.
  std::size_t lines = 0;
  for (const char ch : jsonl.str()) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
}

TEST(Probes, GiniAndMaxOverMeanImbalance) {
  EXPECT_DOUBLE_EQ(obs::gini({}), 0.0);
  EXPECT_DOUBLE_EQ(obs::gini({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(obs::gini({5.0, 5.0, 5.0, 5.0}), 0.0);
  EXPECT_NEAR(obs::gini({0.0, 0.0, 0.0, 8.0}), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(obs::max_over_mean({2.0, 2.0, 2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(obs::max_over_mean({0.0, 0.0, 0.0, 8.0}), 4.0);
}

TEST(Probes, StalenessSummaryAndDivergenceTally) {
  const auto stats = obs::summarize_ages(
      {sim::seconds(1), sim::seconds(3), sim::seconds(8)});
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.max_age, sim::seconds(8));
  EXPECT_DOUBLE_EQ(stats.max_age_s(), 8.0);
  EXPECT_DOUBLE_EQ(stats.mean_age_s, 4.0);
  EXPECT_EQ(obs::summarize_ages({}).count, 0u);

  obs::DivergenceTally tally;
  tally.add(true, true);    // agree
  tally.add(true, false);   // false positive
  tally.add(false, true);   // false negative
  tally.add(false, false);  // agree
  EXPECT_EQ(tally.pairs, 4u);
  EXPECT_DOUBLE_EQ(tally.fp_rate(), 0.25);
  EXPECT_DOUBLE_EQ(tally.fn_rate(), 0.25);
  EXPECT_DOUBLE_EQ(obs::DivergenceTally{}.fp_rate(), 0.0);
}

// --- Prometheus HELP lines (profiling PR satellite) ---

TEST(Export, PrometheusHelpLinesUseRegisteredTextOrDottedName) {
  obs::MetricsRegistry registry;
  registry.counter("net.query.messages").inc(1);
  registry.set_help("net.query.messages",
                    "Query messages sent across the federation");
  registry.counter("net.update.bytes").inc(2);  // no help set
  registry.histogram("overlay.put_us", {1.0}).record(0.5);
  registry.set_help("overlay.put_us", "line one\nwith \\ backslash");
  std::ostringstream os;
  obs::write_prometheus(registry, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP roads_net_query_messages Query messages sent "
                      "across the federation"),
            std::string::npos)
      << text;
  // No help registered: the dotted instrument name is the fallback.
  EXPECT_NE(text.find("# HELP roads_net_update_bytes net.update.bytes"),
            std::string::npos)
      << text;
  // Exposition-format escaping: newline and backslash only.
  EXPECT_NE(text.find("# HELP roads_overlay_put_us line one\\nwith "
                      "\\\\ backslash"),
            std::string::npos)
      << text;
  // Every # TYPE is preceded by its # HELP line.
  std::istringstream lines(text);
  std::string line;
  std::string prev;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      EXPECT_EQ(prev.rfind("# HELP ", 0), 0u) << "TYPE without HELP: " << line;
    }
    prev = line;
  }
  // Last writer wins.
  registry.set_help("net.query.messages", "rewritten");
  EXPECT_EQ(registry.help("net.query.messages"), "rewritten");
  EXPECT_EQ(registry.help("never.registered"), "");
}

// --- Exponential buckets (profiling PR satellite) ---

TEST(Histogram, ExponentialBucketsShapeAndValidation) {
  const auto bounds = obs::exponential_buckets(0.5, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.5);
  EXPECT_DOUBLE_EQ(bounds[1], 1.0);
  EXPECT_DOUBLE_EQ(bounds[2], 2.0);
  EXPECT_DOUBLE_EQ(bounds[3], 4.0);
  EXPECT_DOUBLE_EQ(bounds[4], 8.0);
  // Strictly increasing (the Histogram constructor's requirement).
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_EQ(obs::exponential_buckets(1e-3, 10.0, 1).size(), 1u);
  EXPECT_THROW(obs::exponential_buckets(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(-1.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(1.0, 0.5, 4), std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(1.0, 2.0, 0), std::invalid_argument);
  // A registry histogram accepts the shape directly.
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("flush_us", obs::exponential_buckets(0.5, 2.0, 8));
  h.record(3.0);
  EXPECT_EQ(h.count(), 1u);
}

// --- Thread-CPU clock (profiling PR satellite) ---

TEST(ScopedTimer, ThreadCpuClockMonotoneAndRecordsNonNegative) {
  const auto clock = obs::ScopedTimer::thread_cpu_clock();
  const double t0 = clock();
  // Burn a little CPU so the thread clock must advance.
  volatile double sink = 0.0;
  for (int i = 0; i < 200000; ++i) sink += static_cast<double>(i) * 1e-9;
  const double t1 = clock();
  EXPECT_GE(t1, t0);
  EXPECT_GT(t1, 0.0);

  obs::Histogram h(obs::exponential_buckets(0.5, 2.0, 14));
  {
    obs::ScopedTimer timer(h, obs::ScopedTimer::thread_cpu_clock());
    for (int i = 0; i < 100000; ++i) sink += static_cast<double>(i) * 1e-9;
  }
  ASSERT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
  // Blocking (sleep) must not count as thread CPU the way wall time
  // does: a sleeping scope records (almost) nothing.
  obs::Histogram sleeping(obs::exponential_buckets(0.5, 2.0, 20));
  {
    obs::ScopedTimer timer(sleeping, obs::ScopedTimer::thread_cpu_clock());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(sleeping.count(), 1u);
  EXPECT_LT(sleeping.max(), 15000.0);  // far below the 20ms wall time
}

}  // namespace
}  // namespace roads

// Microbenchmarks (google-benchmark) of the hot substrate operations:
// histogram updates and merges, summary construction, Bloom filter
// probes, record-store queries, the discrete-event core, and the two
// trace kernels a traced query pays for (ring appends, and its span
// tree plus critical path). These bound the simulator's own cost so the
// figure benches' wall time is explainable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/span_tree.h"
#include "obs/trace.h"
#include "record/query.h"
#include "sim/delay_space.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "summary/bloom_filter.h"
#include "summary/histogram.h"
#include "summary/resource_summary.h"
#include "util/rng.h"
#include "workload/record_generator.h"

namespace {

using namespace roads;

void BM_HistogramAdd(benchmark::State& state) {
  summary::Histogram h(1000, 0.0, 1.0);
  util::Rng rng(1);
  for (auto _ : state) {
    h.add(rng.uniform01());
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramMerge(benchmark::State& state) {
  summary::Histogram a(1000, 0.0, 1.0);
  summary::Histogram b(1000, 0.0, 1.0);
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) b.add(rng.uniform01());
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a.total());
  }
}
BENCHMARK(BM_HistogramMerge);

void BM_HistogramRangeMatch(benchmark::State& state) {
  summary::Histogram h(1000, 0.0, 1.0);
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) h.add(rng.uniform01());
  double lo = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.matches_range(lo, lo + 0.25));
    lo = lo > 0.5 ? 0.2 : lo + 0.01;
  }
}
BENCHMARK(BM_HistogramRangeMatch);

// The test a pruned branch pays: 100 values cluster in [0.6, 0.7), and
// every probe's 250-bucket window lies below them.
void BM_HistogramRangeMiss(benchmark::State& state) {
  summary::Histogram h(1000, 0.0, 1.0);
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) h.add(rng.uniform(0.6, 0.7));
  double lo = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.matches_range(lo, lo + 0.25));
    lo = lo > 0.3 ? 0.05 : lo + 0.01;
  }
}
BENCHMARK(BM_HistogramRangeMiss);

void BM_BloomAddProbe(benchmark::State& state) {
  summary::BloomFilter bloom(4096, 4);
  int i = 0;
  for (auto _ : state) {
    const std::string key = "value-" + std::to_string(i % 1000);
    bloom.add(key);
    benchmark::DoNotOptimize(bloom.maybe_contains(key));
    ++i;
  }
}
BENCHMARK(BM_BloomAddProbe);

void BM_SummarizeRecords(benchmark::State& state) {
  const auto schema = record::Schema::uniform_numeric(16);
  const auto spec = workload::WorkloadSpec::paper_default(16, 500);
  workload::RecordGenerator gen(schema, spec, 7);
  const auto records = gen.records_for_node(0, 1);
  summary::SummaryConfig config;
  for (auto _ : state) {
    auto s = summary::ResourceSummary::of_records(schema, config, records);
    benchmark::DoNotOptimize(s.record_count());
  }
}
BENCHMARK(BM_SummarizeRecords);

// --- Steady-state summary refresh ---
//
// A 10k-record, 16-attribute store with 1% of records updated per
// refresh round, rebuilt from its columns each round as a server does
// when the store's version moved. The time includes the churn itself.

store::RecordStore make_store_10k(const record::Schema& schema) {
  store::RecordStore store(schema);
  util::Rng rng(7);
  for (record::RecordId id = 1; id <= 10000; ++id) {
    std::vector<record::AttributeValue> vals;
    vals.reserve(16);
    for (int a = 0; a < 16; ++a) vals.emplace_back(rng.uniform01());
    store.insert(record::ResourceRecord(id, 1, std::move(vals)));
  }
  return store;
}

void churn_one_percent(store::RecordStore& store, util::Rng& rng) {
  for (int i = 0; i < 100; ++i) {
    const auto id = static_cast<record::RecordId>(rng.uniform_int(1, 10000));
    std::vector<record::AttributeValue> vals;
    vals.reserve(16);
    for (int a = 0; a < 16; ++a) vals.emplace_back(rng.uniform01());
    store.update(record::ResourceRecord(id, 1, std::move(vals)));
  }
}

void BM_RefreshFullRecompute10k1pct(benchmark::State& state) {
  const auto schema = record::Schema::uniform_numeric(16);
  auto store = make_store_10k(schema);
  summary::SummaryConfig config;
  util::Rng rng(11);
  for (auto _ : state) {
    churn_one_percent(store, rng);
    auto s = store.summarize(config);
    benchmark::DoNotOptimize(s.record_count());
  }
}
BENCHMARK(BM_RefreshFullRecompute10k1pct)->Unit(benchmark::kMicrosecond);

// The full 16 x 1000-counter walk: adding one record drops the digest
// memo every iteration, and the walk reads every counter whatever its
// value.
void BM_SummaryDigest16(benchmark::State& state) {
  const auto schema = record::Schema::uniform_numeric(16);
  const auto spec = workload::WorkloadSpec::paper_default(16, 500);
  workload::RecordGenerator gen(schema, spec, 7);
  summary::SummaryConfig config;
  const auto records = gen.records_for_node(0, 1);
  auto s = summary::ResourceSummary::of_records(schema, config, records);
  for (auto _ : state) {
    s.add(records.front());
    benchmark::DoNotOptimize(s.digest());
  }
}
BENCHMARK(BM_SummaryDigest16);

// What every push after the first pays: a memo hit.
void BM_SummaryDigest16Memoized(benchmark::State& state) {
  const auto schema = record::Schema::uniform_numeric(16);
  const auto spec = workload::WorkloadSpec::paper_default(16, 500);
  workload::RecordGenerator gen(schema, spec, 7);
  summary::SummaryConfig config;
  const auto s = summary::ResourceSummary::of_records(schema, config,
                                                      gen.records_for_node(0, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.digest());
  }
}
BENCHMARK(BM_SummaryDigest16Memoized);

void BM_SummaryMerge16x1000(benchmark::State& state) {
  const auto schema = record::Schema::uniform_numeric(16);
  const auto spec = workload::WorkloadSpec::paper_default(16, 500);
  workload::RecordGenerator gen(schema, spec, 7);
  summary::SummaryConfig config;
  auto a = summary::ResourceSummary::of_records(schema, config,
                                                gen.records_for_node(0, 1));
  const auto b = summary::ResourceSummary::of_records(
      schema, config, gen.records_for_node(1, 2));
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a.record_count());
  }
}
BENCHMARK(BM_SummaryMerge16x1000);

void BM_StoreQueryScan500(benchmark::State& state) {
  const auto schema = record::Schema::uniform_numeric(16);
  const auto spec = workload::WorkloadSpec::paper_default(16, 500);
  workload::RecordGenerator gen(schema, spec, 7);
  store::RecordStore store(schema);
  for (auto& r : gen.records_for_node(0, 1)) store.insert(std::move(r));
  record::Query q;
  q.add(record::Predicate::range(0, 0.2, 0.45));
  q.add(record::Predicate::range(1, 0.2, 0.45));
  q.add(record::Predicate::range(2, 0.2, 0.45));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(q));
  }
}
BENCHMARK(BM_StoreQueryScan500);

void BM_StoreQueryIndexed64k(benchmark::State& state) {
  const auto schema = record::Schema::uniform_numeric(16);
  const auto spec = workload::WorkloadSpec::paper_default(16, 1000);
  workload::RecordGenerator gen(schema, spec, 7);
  store::RecordStore store(schema);
  for (std::uint32_t n = 0; n < 64; ++n) {
    for (auto& r : gen.records_for_node(n, n + 1)) store.insert(std::move(r));
  }
  record::Query q;
  q.add(record::Predicate::range(0, 0.2, 0.3));
  q.add(record::Predicate::range(1, 0.2, 0.3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(q));
  }
}
BENCHMARK(BM_StoreQueryIndexed64k);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t counter = 0;
    for (int i = 0; i < 10000; ++i) {
      simulator.schedule_after(i, [&counter] { ++counter; });
    }
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_DelaySpaceLatency(benchmark::State& state) {
  sim::DelaySpace space(640, util::Rng(3));
  sim::NodeId a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.latency(a, 639 - a));
    a = (a + 1) % 640;
  }
}
BENCHMARK(BM_DelaySpaceLatency);

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform01());
  }
}
BENCHMARK(BM_RngUniform);

// One append into a full ring of the Federation's default capacity:
// what every traced send, delivery, marker and span boundary costs once
// the ring has wrapped.
void BM_TraceRecordFullRing(benchmark::State& state) {
  obs::TraceBuffer ring(8192);
  obs::TraceEvent ev;
  ev.kind = obs::TraceKind::kSend;
  ev.label = "query";
  while (ring.size() < ring.capacity()) ring.record(ev);
  for (auto _ : state) {
    ++ev.at_us;
    ring.record(ev);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(ring.recorded());
}
BENCHMARK(BM_TraceRecordFullRing);

/// One query's events, shaped like a ROADS query's slice of the ring:
/// the client's root span, then 57 hops in waves of a binary fan-out.
/// A hop is the query transit (send, deliver), a hop marker, the
/// server's `proc` span with a redirect marker inside it, and the reply
/// transit to the client, under whose delivery the next wave is sent.
/// Span ids ascend in recording order, as the ring allocates them.
std::vector<obs::TraceEvent> query_slice() {
  constexpr std::size_t kHops = 57;
  std::vector<obs::TraceEvent> out;
  const std::uint64_t root = 1;
  std::uint64_t next_id = root + 1;
  const auto add = [&out](std::int64_t at, obs::TraceKind kind,
                          std::uint64_t span, std::uint64_t parent,
                          std::uint32_t node, std::uint32_t peer,
                          const char* label) {
    obs::TraceEvent ev;
    ev.at_us = at;
    ev.kind = kind;
    ev.span = span;
    ev.trace = root;
    ev.parent = parent;
    ev.node = node;
    ev.peer = peer;
    ev.label = label;
    out.push_back(ev);
  };
  using K = obs::TraceKind;
  std::vector<std::uint64_t> query(kHops), proc(kHops), reply(kHops);
  add(0, K::kQueryStart, root, 0, 0, 0, "");
  std::int64_t t = 0;
  for (std::size_t lo = 0; lo < kHops; lo = 2 * lo + 1, t += 100) {
    const std::size_t hi = std::min(kHops, 2 * lo + 1);
    for (std::size_t h = lo; h < hi; ++h) {
      const auto server = static_cast<std::uint32_t>(h + 1);
      query[h] = next_id++;
      add(t, K::kSend, query[h], h == 0 ? root : reply[(h - 1) / 2], 0,
          server, "query");
    }
    for (std::size_t h = lo; h < hi; ++h) {
      const auto server = static_cast<std::uint32_t>(h + 1);
      add(t + 40, K::kDeliver, query[h], 0, 0, server, "query");
      add(t + 40, K::kQueryHop, query[h], 0, server, 0, "");
    }
    for (std::size_t h = lo; h < hi; ++h) {
      const auto server = static_cast<std::uint32_t>(h + 1);
      proc[h] = next_id++;
      add(t + 45, K::kSpanBegin, proc[h], query[h], server, server, "proc");
      add(t + 50, K::kQueryRedirect, proc[h], 0, server, 0, "");
    }
    for (std::size_t h = lo; h < hi; ++h) {
      const auto server = static_cast<std::uint32_t>(h + 1);
      reply[h] = next_id++;
      add(t + 60, K::kSend, reply[h], proc[h], server, 0, "result");
      add(t + 60, K::kSpanEnd, proc[h], 0, 0, 0, "");
    }
    for (std::size_t h = lo; h < hi; ++h) {
      add(t + 100, K::kDeliver, reply[h], 0, static_cast<std::uint32_t>(h + 1),
          0, "result");
    }
  }
  add(t, K::kQueryComplete, root, 0, 0, 0, "");
  return out;
}

// What run_query pays per traced query after reading its slice: the
// query's span tree and its forwarding critical path.
void BM_QuerySpanTreeAndCriticalPath(benchmark::State& state) {
  const auto slice = query_slice();
  const std::uint64_t root = slice.front().span;
  for (auto _ : state) {
    const auto tree = obs::SpanTree::build(slice);
    const auto path = obs::query_critical_path(
        tree, root, obs::QueryEndpoint::kForwarding);
    if (!path.complete) {
      state.SkipWithError("critical path incomplete");
      break;
    }
    benchmark::DoNotOptimize(path.total_us);
  }
  state.SetLabel(std::to_string(slice.size()) + " events");
}
BENCHMARK(BM_QuerySpanTreeAndCriticalPath)->Unit(benchmark::kMicrosecond);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults to also writing the results as
// BENCH_micro_core.json so this binary matches the table benches'
// machine-readable reporting. Explicit --benchmark_out flags win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

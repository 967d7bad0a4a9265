// The three benchmark workloads (query, churn, serve). Each builds its
// federation through the public core::Federation API from inputs drawn
// from the seed before set-up starts, runs one timed phase, checks the
// program's outputs against oracles outside that phase, and reports the
// end-to-end metrics (plus, in the traced run, the per-layer ones).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "obs/profile.h"
#include "testing/invariants.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/distributions.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace perfbench {

using namespace roads;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// Work is sized from --seconds with these reference-host rates (4-vCPU
// x86-64, GCC 12, Release), never from a speed measured during the run:
// the exact metrics must depend on (workload, seed, seconds) alone.
constexpr double kQueryRate = 250.0;        // closed-loop queries / wall s
constexpr double kChurnSimRate = 90.0;      // churn sim s / wall s
constexpr double kProbesPerSecond = 120.0;  // churn probe batch size / s
constexpr double kServeSimRate = 15.0;      // serve sim s / wall s

constexpr sim::Time kSummaryPeriod = sim::seconds(100);  // ts
constexpr sim::Time kRecordPeriod = sim::seconds(10);    // tr
constexpr std::size_t kKeepalive = 3;                    // K
constexpr std::size_t kSetups = 3;  // set-up repetitions per run

struct Geometry {
  std::size_t nodes = 320;
  std::size_t records = 500;
  std::size_t attributes = 16;
  std::size_t dimensions = 6;
  double range = 0.25;
  std::size_t buckets = 1000;
  std::size_t degree = 8;
};

Geometry geometry_for(const Options& o) {
  Geometry g;
  if (o.workload == "churn") {
    g.nodes = 640;
    g.records = 100;
  }
  if (o.tiny) {
    g.nodes = 40;
    g.records = 50;
    g.buckets = 100;
  }
  return g;
}

/// Counters and histograms the program keeps, read at a phase boundary.
struct Counters {
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t spilled = 0;
  std::uint64_t query_msgs = 0;
  std::uint64_t query_bytes = 0;
  std::uint64_t update_msgs = 0;
  std::uint64_t update_bytes = 0;
  std::uint64_t hops = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t shortcut_hits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t neg_hits = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t sheds = 0;
  std::uint64_t push_suppressed = 0;
  std::uint64_t full_rebuilds = 0;
  std::uint64_t delta_slots = 0;
  std::uint64_t refresh_count = 0;
  double refresh_us_sum = 0.0;
  std::uint64_t put_count = 0;
  double put_us_sum = 0.0;
  std::uint64_t match_count = 0;
  double match_us_sum = 0.0;
  std::uint64_t trace_events = 0;
};

Counters read_counters(core::Federation& fed) {
  auto& m = fed.metrics();
  Counters c;
  c.sim_s = sim::to_seconds(fed.simulator().now());
  const auto st = fed.engine_stats();
  c.events = st.executed;
  c.scheduled = st.scheduled;
  c.spilled = st.spilled_events;
  const auto q = fed.network().meter(sim::Channel::kQuery);
  const auto u = fed.network().meter(sim::Channel::kUpdate);
  c.query_msgs = q.messages;
  c.query_bytes = q.bytes;
  c.update_msgs = u.messages;
  c.update_bytes = u.bytes;
  c.hops = m.counter("roads.query.hops").value();
  c.false_positives = m.counter("roads.query.false_positives").value();
  c.shortcut_hits = m.counter("roads.overlay.shortcut_hits").value();
  c.cache_hits = m.counter("roads.query.cache.hit").value();
  c.cache_misses = m.counter("roads.query.cache.miss").value();
  c.neg_hits = m.counter("roads.query.cache.neg_hit").value();
  c.invalidations = m.counter("roads.query.cache.invalidate").value();
  c.evictions = m.counter("roads.query.cache.evicted").value();
  c.sheds = m.counter("roads.query.cache.shed").value();
  c.push_suppressed = m.counter("roads.summary.push_suppressed").value();
  c.full_rebuilds = m.counter("roads.summary.full_rebuilds").value();
  c.delta_slots = m.counter("roads.summary.delta_slots").value();
  const auto& refresh = m.histogram("roads.summary.refresh_us");
  c.refresh_count = refresh.count();
  c.refresh_us_sum = refresh.sum();
  const auto& put = m.histogram("overlay.put_us");
  c.put_count = put.count();
  c.put_us_sum = put.sum();
  const auto& match = m.histogram("overlay.match_us");
  c.match_count = match.count();
  c.match_us_sum = match.sum();
  if (const auto* t = fed.trace()) c.trace_events = t->size() + t->dropped();
  return c;
}

/// Peak resident set of this process so far, MiB (VmHWM).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// A pre-drawn record rewrite: one attribute of one stored record. The
/// tick (sim time) is implied by the plan's tick_begin offsets.
struct Rewrite {
  std::uint32_t node = 0;
  std::uint32_t index = 0;  // record index within the node
  std::uint32_t attribute = 0;
  double value = 0.0;
};

struct ChurnPlan {
  std::vector<Rewrite> rewrites;
  std::vector<std::size_t> tick_begin;  // size ticks + 1
  std::size_t ticks() const {
    return tick_begin.empty() ? 0 : tick_begin.size() - 1;
  }
};

record::RecordId record_id(std::uint32_t node, std::uint32_t index) {
  return static_cast<record::RecordId>(node) * 1'000'000ULL + index;
}

/// Every tick, each node rewrites `per_node` distinct records, one
/// attribute each, with a value from that attribute's distribution at
/// the node's placement anchor.
ChurnPlan draw_churn(const workload::RecordGenerator& gen, const Geometry& g,
                     std::size_t per_node, std::size_t ticks,
                     std::uint64_t seed) {
  util::Rng rng(seed ^ 0xc4u);
  ChurnPlan plan;
  plan.rewrites.reserve(ticks * g.nodes * per_node);
  std::vector<std::uint32_t> picked;
  for (std::size_t t = 0; t < ticks; ++t) {
    plan.tick_begin.push_back(plan.rewrites.size());
    for (std::uint32_t n = 0; n < g.nodes; ++n) {
      picked.clear();
      while (picked.size() < per_node) {
        const auto idx = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(g.records) - 1));
        if (std::find(picked.begin(), picked.end(), idx) != picked.end()) {
          continue;
        }
        picked.push_back(idx);
        const auto attr = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(g.attributes) - 1));
        const double v = workload::sample(gen.spec().attributes[attr],
                                          gen.node_anchor(n, attr), rng);
        plan.rewrites.push_back({n, idx, attr, v});
      }
    }
  }
  plan.tick_begin.push_back(plan.rewrites.size());
  return plan;
}

/// Flat copy of every record's values with per-node bounding boxes:
/// the ground-truth oracle. It shares no code with the program's store
/// or summaries (inclusive range predicates, evaluated directly).
class Oracle {
 public:
  Oracle(std::size_t nodes, std::size_t attributes)
      : nodes_(nodes), attrs_(attributes), lo_(nodes * attributes, 1e300),
        hi_(nodes * attributes, -1e300), begin_(nodes + 1, 0) {}

  /// Loads node n's records (nodes must be added in order 0, 1, ...).
  void add_node(std::size_t n, const std::vector<record::ResourceRecord>& rs) {
    for (const auto& r : rs) {
      for (std::size_t a = 0; a < attrs_; ++a) {
        const double v = r.value(a).number();
        values_.push_back(v);
        lo_[n * attrs_ + a] = std::min(lo_[n * attrs_ + a], v);
        hi_[n * attrs_ + a] = std::max(hi_[n * attrs_ + a], v);
      }
    }
    begin_[n + 1] = values_.size() / attrs_;
  }

  std::uint64_t count(const record::Query& q) const {
    std::uint64_t total = 0;
    for (std::size_t n = 0; n < nodes_; ++n) {
      bool possible = true;
      for (const auto& p : q.predicates()) {
        if (p.hi < lo_[n * attrs_ + p.attribute] ||
            p.lo > hi_[n * attrs_ + p.attribute]) {
          possible = false;
          break;
        }
      }
      if (!possible) continue;
      for (std::size_t r = begin_[n]; r < begin_[n + 1]; ++r) {
        total += row_matches(q, r) ? 1 : 0;
      }
    }
    return total;
  }

  bool row_matches(const record::Query& q, std::size_t row) const {
    const double* v = &values_[row * attrs_];
    for (const auto& p : q.predicates()) {
      if (p.kind != record::Predicate::Kind::kRange) {
        throw std::runtime_error("oracle: only range predicates supported");
      }
      const double x = v[p.attribute];
      if (x < p.lo || x > p.hi) return false;
    }
    return true;
  }

  std::size_t row(std::uint32_t node, std::uint32_t index) const {
    return begin_[node] + index;
  }
  /// Rewrites one value of node `node`'s row, widening its box.
  void set(std::uint32_t node, std::size_t row, std::size_t attribute,
           double v) {
    values_[row * attrs_ + attribute] = v;
    lo_[node * attrs_ + attribute] = std::min(lo_[node * attrs_ + attribute], v);
    hi_[node * attrs_ + attribute] = std::max(hi_[node * attrs_ + attribute], v);
  }

 private:
  std::size_t nodes_;
  std::size_t attrs_;
  std::vector<double> values_;
  std::vector<double> lo_, hi_;
  std::vector<std::size_t> begin_;
};

Oracle oracle_of_stores(core::Federation& fed, std::size_t attributes) {
  Oracle oracle(fed.server_count(), attributes);
  for (std::size_t n = 0; n < fed.server_count(); ++n) {
    oracle.add_node(
        n, fed.server(static_cast<sim::NodeId>(n)).local_store().snapshot());
  }
  return oracle;
}

/// Parent-held child summaries and sibling replicas that differ from the
/// origin's current branch summary.
std::size_t stale_summaries(core::Federation& fed) {
  const auto differs = [](const core::SummaryPtr& held,
                          const core::SummaryPtr& current) {
    if (held == current) return false;
    return !held || !current || held->digest() != current->digest();
  };
  std::size_t stale = 0;
  for (auto* s : fed.servers()) {
    if (!s->alive()) continue;
    for (const auto& [child, held] : s->child_summaries()) {
      if (!s->children().has(child)) continue;
      stale += differs(held, fed.server(child).branch_summary()) ? 1 : 0;
    }
    for (const auto* r : s->replicas().all()) {
      if (r->spec.role != overlay::ReplicaRole::kSibling ||
          r->spec.kind != overlay::SummaryKind::kBranch) {
        continue;
      }
      stale += differs(r->summary, fed.server(r->spec.origin).branch_summary())
                   ? 1
                   : 0;
    }
  }
  return stale;
}

/// Shared scaffolding of one workload run: inputs, the federation, the
/// set-up spans and the phase-boundary readings.
class Run {
 public:
  Run(const Options& o, Tracer& tracer)
      : opt(o), geo(geometry_for(o)),
        schema(record::Schema::uniform_numeric(geo.attributes)),
        spec(workload::WorkloadSpec::paper_default(geo.attributes,
                                                   geo.records)),
        gen(schema, spec, o.seed),
        tr(tracer) {
    gen.anchor_by_balanced_tree(geo.nodes, geo.degree);
  }

  std::vector<record::Query> draw_queries(std::size_t n, std::uint64_t seed) {
    workload::QueryGenerator qgen(schema, spec, seed);
    return qgen.generate_batch(n, geo.dimensions, geo.range);
  }

  std::vector<sim::NodeId> draw_starts(std::size_t n, std::uint64_t salt) {
    util::Rng pick(opt.seed ^ salt);
    std::vector<sim::NodeId> out(n);
    for (auto& s : out) {
      s = static_cast<sim::NodeId>(
          pick.uniform_int(0, static_cast<std::int64_t>(geo.nodes) - 1));
    }
    return out;
  }

  /// Set-up, repeated kSetups times on fresh federations (the last one
  /// is kept for the timed phase): construction, joins, record load,
  /// start + stabilize, then the workload's `warm_up`. Records are
  /// regenerated before each repetition, outside the clock; setup_s and
  /// its sub-phases are medians over the repetitions.
  template <typename WarmUp>
  void set_up(const core::RoadsConfig& config, WarmUp warm_up) {
    const std::size_t reps = opt.tiny ? 2 : kSetups;
    std::vector<double> total, join, load, stabilize;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      fed.reset();
      auto records = gen.all_records(geo.nodes);
      Span setup_span(tr, "setup");
      const auto t0 = Clock::now();
      core::FederationParams p;
      p.schema = schema;
      p.seed = federation_seed;
      p.config = config;
      p.config.max_children = geo.degree;
      p.config.summary.histogram_buckets = geo.buckets;
      p.config.summary_refresh_period = kSummaryPeriod;
      p.config.summary_ttl = 4 * kSummaryPeriod;
      p.config.summary_keepalive_rounds = kKeepalive;
      p.profile = opt.trace;
      fed = std::make_unique<core::Federation>(std::move(p));
      {
        Span s(tr, "setup.join");
        const auto t = Clock::now();
        fed->add_servers(geo.nodes);
        join.push_back(seconds_since(t));
      }
      {
        Span s(tr, "setup.load");
        const auto t = Clock::now();
        for (std::size_t n = 0; n < geo.nodes; ++n) {
          const auto node = static_cast<sim::NodeId>(n);
          auto owner =
              fed->add_owner(node, core::ExportMode::kDetailedRecords);
          for (auto& r : records[n]) owner->store().insert(std::move(r));
          fed->server(node).attach_owner(owner,
                                         core::ExportMode::kDetailedRecords);
        }
        load.push_back(seconds_since(t));
      }
      {
        Span s(tr, "setup.stabilize");
        const auto t = Clock::now();
        started_at = fed->simulator().now();
        fed->start();
        fed->stabilize();
        stabilize.push_back(seconds_since(t));
      }
      {
        Span s(tr, "setup.warmup");
        warm_up();
      }
      total.push_back(seconds_since(t0));
    }
    setup_s = median(total);
    join_s = median(join);
    load_s = median(load);
    stabilize_s = median(stabilize);
  }

  void check_structure(Report& rep, const char* stage) {
    testing::InvariantOptions io;
    io.summary_soundness = false;
    io.replica_ttl = false;
    const auto r = testing::check_invariants(*fed, io);
    rep.check(r.ok(), std::string("invariants ") + stage + ": " +
                          (r.ok() ? "ok" : r.to_string()));
  }

  /// Starts the timed phase: counter snapshot, profiler slice reset.
  void begin_timed() {
    queue_depth_max = 0;
    update_ns = 0.0;
    updates = 0;
    if (auto* prof = fed->profiler()) prof->take_profile();
    c0 = read_counters(*fed);
    timed_t0 = Clock::now();
  }

  /// Ends it: wall time, peak RSS (before any oracle or replay
  /// allocates), counters, profiler slice.
  void end_timed() {
    timed_wall_s = seconds_since(timed_t0);
    peak_rss = peak_rss_mib();
    c1 = read_counters(*fed);
    if (auto* prof = fed->profiler()) profile = prof->profile();
  }

  double server_state_kib() {
    std::uint64_t worst = 0;
    for (auto* s : fed->servers()) {
      worst = std::max(worst, s->stored_summary_bytes());
    }
    return static_cast<double>(worst) / 1024.0;
  }

  /// Query-side end-to-end metrics from one batch of outcomes.
  void add_query_metrics(Report& rep, const std::vector<QueryRecord>& out,
                         std::uint64_t query_bytes, double wall_s,
                         const char* label) {
    std::vector<double> lat;
    lat.reserve(out.size());
    std::uint64_t matches = 0, truth = 0, served = 0, failed = 0;
    for (const auto& q : out) {
      const bool ok = q.complete && !q.rejected;
      lat.push_back(ok ? static_cast<double>(q.latency_us) / 1000.0
                       : std::numeric_limits<double>::infinity());
      matches += q.matches;
      truth += q.truth;
      served += ok ? 1 : 0;
      failed += ok ? 0 : 1;
    }
    std::sort(lat.begin(), lat.end());
    const auto rank = [&](double p) {
      const auto idx = static_cast<std::size_t>(
          std::ceil(p * static_cast<double>(lat.size())));
      return lat.empty() ? 0.0 : lat[std::max<std::size_t>(idx, 1) - 1];
    };
    const auto n = static_cast<double>(out.size());
    const std::size_t beyond_p99 =
        lat.size() - static_cast<std::size_t>(
                         std::ceil(0.99 * static_cast<double>(lat.size())));
    std::fprintf(stderr,
                 "perfbench: %s latency samples=%zu (%zu beyond p99)\n",
                 label, lat.size(), beyond_p99);
    rep.check(beyond_p99 >= 10,
              std::string(label) + ": at least 10 latency samples beyond p99");
    rep.add("wall_qps", ratio(n, wall_s), "queries/s");
    rep.add("latency_p50_ms", rank(0.50), "sim_ms", true);
    rep.add("latency_p99_ms", rank(0.99), "sim_ms", true);
    rep.add("query_bytes", ratio(static_cast<double>(query_bytes), n),
            "B/query", true);
    rep.add("recall", ratio(static_cast<double>(matches),
                            static_cast<double>(truth)),
            "ratio", true);
    rep.add("served_frac", ratio(static_cast<double>(served), n), "ratio",
            true);
    rep.check(std::isfinite(rank(0.99)),
              std::string(label) + ": latency_p99_ms finite");
    rep.check(truth > 0, std::string(label) + ": queries match some records");
    rep.attempted += out.size();
    rep.failed += failed;
  }

  /// Traced-run per-layer metrics read from counters, spans and the
  /// profiler. `qc0`/`qc1` bracket the query phase (the probe batch on
  /// churn), c0/c1 the timed phase.
  void add_layer_metrics(Report& rep, const Counters& qc0,
                         const Counters& qc1, double queries) {
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    const double sim_span = c1.sim_s - c0.sim_s;
    const double events = d(c0.events, c1.events);
    rep.add("sim.events", events, "count");
    rep.add("sim.ns_per_event", ratio(timed_wall_s * 1e9, events), "ns");
    rep.add("sim.spill_frac",
            ratio(d(c0.spilled, c1.spilled), d(c0.scheduled, c1.scheduled)),
            "ratio");
    rep.add("sim.net.query_msgs_per_query",
            ratio(d(qc0.query_msgs, qc1.query_msgs), queries), "msgs/query");
    rep.add("sim.net.update_msgs_per_s",
            ratio(d(c0.update_msgs, c1.update_msgs), sim_span), "msgs/sim_s");
    const auto share = [&](const char* category) {
      if (!profile) return 0.0;
      for (const auto& e : profile->categories) {
        if (e.name == category) return e.share;
      }
      return 0.0;
    };
    rep.add("sim.handler_share.query_forward", share("query-forward"), "ratio");
    rep.add("sim.handler_share.summary_push", share("summary-push"), "ratio");
    rep.add("sim.handler_share.replica_cascade", share("replica-cascade"),
            "ratio");
    rep.add("sim.handler_share.timer_refresh", share("timer-refresh"), "ratio");

    const double hops = d(qc0.hops, qc1.hops);
    rep.add("roads.hops_per_query", ratio(hops, queries), "hops/query");
    rep.add("roads.false_positive_frac",
            ratio(d(qc0.false_positives, qc1.false_positives), hops), "ratio");
    rep.add("roads.queue_depth_max", static_cast<double>(queue_depth_max),
            "queries");
    rep.add("roads.shed_frac", ratio(d(qc0.sheds, qc1.sheds), hops), "ratio");
    const double lookups =
        d(qc0.cache_hits, qc1.cache_hits) + d(qc0.cache_misses, qc1.cache_misses);
    rep.add("roads.cache.hit_frac", ratio(d(qc0.cache_hits, qc1.cache_hits), lookups),
            "ratio");
    rep.add("roads.cache.neg_hit_frac",
            ratio(d(qc0.neg_hits, qc1.neg_hits),
                  lookups + d(qc0.neg_hits, qc1.neg_hits)),
            "ratio");
    rep.add("roads.cache.invalidations_per_s",
            ratio(d(c0.invalidations, c1.invalidations), sim_span),
            "1/sim_s");
    rep.add("roads.cache.evictions", d(c0.evictions, c1.evictions), "count");
    std::uint64_t cache_bytes = 0;
    for (auto* s : fed->servers()) cache_bytes += s->query_cache_bytes();
    rep.add("roads.cache.kb_per_server",
            static_cast<double>(cache_bytes) / 1024.0 /
                static_cast<double>(fed->server_count()),
            "KiB");

    const double evals = hops - d(qc0.sheds, qc1.sheds) -
                         d(qc0.cache_hits, qc1.cache_hits) -
                         d(qc0.neg_hits, qc1.neg_hits);
    rep.add("store.evals_per_query", ratio(evals, queries), "evals/query");
    rep.add("store.update_ns", ratio(update_ns, static_cast<double>(updates)),
            "ns");
    rep.add("store.load_s", load_s, "s");

    rep.add("summary.refresh_us",
            ratio(c1.refresh_us_sum - c0.refresh_us_sum,
                  d(c0.refresh_count, c1.refresh_count)),
            "us");
    const double suppressed = d(c0.push_suppressed, c1.push_suppressed);
    rep.add("summary.push_suppressed_frac",
            ratio(suppressed, suppressed + d(c0.update_msgs, c1.update_msgs)),
            "ratio");
    rep.add("summary.full_rebuilds", d(c0.full_rebuilds, c1.full_rebuilds),
            "count");
    rep.add("summary.delta_slots", d(c0.delta_slots, c1.delta_slots),
            "count");
    rep.add("summary.stabilize_s", stabilize_s, "s");

    double replicas = 0.0;
    for (auto* s : fed->servers()) {
      replicas += static_cast<double>(s->replicas().size());
    }
    rep.add("overlay.replicas_per_server",
            ratio(replicas, static_cast<double>(fed->server_count())),
            "replicas");
    rep.add("overlay.put_us",
            ratio(c1.put_us_sum - c0.put_us_sum, d(c0.put_count, c1.put_count)),
            "us");
    rep.add("overlay.match_us",
            ratio(qc1.match_us_sum - qc0.match_us_sum,
                  d(qc0.match_count, qc1.match_count)),
            "us");
    rep.add("overlay.shortcut_hits_per_query",
            ratio(d(qc0.shortcut_hits, qc1.shortcut_hits), queries),
            "hits/query");

    rep.add("hierarchy.height", static_cast<double>(fed->topology().height()),
            "levels");
    rep.add("hierarchy.join_s", join_s, "s");
    rep.add("obs.trace_events_per_query",
            ratio(d(qc0.trace_events, qc1.trace_events), queries),
            "events/query");
  }

  /// Writes the benchmark's own spans when the run ends.
  void write_spans() {
    if (!tr.enabled() || opt.spans_out.empty()) return;
    std::ofstream os(opt.spans_out);
    if (!os) throw std::runtime_error("cannot write " + opt.spans_out);
    tr.write_json(os);
  }

  /// Applies one churn tick to the servers' stores (inside an engine
  /// event): each rewrite updates a copy of the stored record.
  void apply_tick(const ChurnPlan& plan, std::size_t tick) {
    Span s(tr, "store.update");
    for (std::size_t i = plan.tick_begin[tick]; i < plan.tick_begin[tick + 1];
         ++i) {
      const auto& w = plan.rewrites[i];
      auto& store = fed->server(w.node).local_store();
      auto rec = store.get(record_id(w.node, w.index));
      rec.set_value(w.attribute, record::AttributeValue(w.value));
      if (tr.enabled()) {
        const auto t = Clock::now();
        store.update(std::move(rec));
        update_ns += std::chrono::duration<double, std::nano>(Clock::now() - t)
                         .count();
      } else {
        store.update(std::move(rec));
      }
      ++updates;
    }
  }

  const Options& opt;
  Geometry geo;
  record::Schema schema;
  workload::WorkloadSpec spec;
  workload::RecordGenerator gen;
  Tracer& tr;
  /// Seeds the federation itself (delay space, join and network RNGs).
  std::uint64_t federation_seed = opt.seed;
  std::unique_ptr<core::Federation> fed;
  /// Sim time of fed->start(): refresh waves fire in the first second
  /// of every summary period after it.
  sim::Time started_at = 0;

  double setup_s = 0.0, join_s = 0.0, load_s = 0.0, stabilize_s = 0.0;
  Clock::time_point timed_t0;
  double timed_wall_s = 0.0;
  double peak_rss = 0.0;
  Counters c0, c1;
  std::optional<obs::Profile> profile;
  std::size_t queue_depth_max = 0;
  double update_ns = 0.0;
  std::size_t updates = 0;
};

void fold(util::Fnv1a& fp, const QueryRecord& q) {
  fp.add(static_cast<std::uint64_t>(q.complete));
  fp.add(static_cast<std::uint64_t>(q.rejected));
  fp.add(static_cast<std::uint64_t>(q.sheds));
  fp.add(static_cast<std::uint64_t>(q.latency_us));
  fp.add(q.matches);
  fp.add(q.truth);
}

/// The paper's guarantee in a converged, fault-free tree: every query is
/// served and reaches every matching record (recall and served_frac
/// exactly 1).
void check_full_recall(Report& rep, const std::vector<QueryRecord>& out,
                       const std::string& label) {
  std::size_t bad = 0;
  std::string first;
  for (const auto& q : out) {
    if (q.complete && !q.rejected && q.matches == q.truth) continue;
    if (bad++ == 0) {
      first = "query " + std::to_string(q.query) + " reached " +
              std::to_string(q.matches) + " of " + std::to_string(q.truth);
    }
  }
  rep.check(bad == 0, label + ": " + std::to_string(bad) +
                          " queries not served in full" +
                          (bad ? " (first: " + first + ")" : ""));
}

/// Closed loop: each query runs to completion through run_query before
/// the next is issued.
std::vector<QueryRecord> closed_loop(Run& run,
                                     const std::vector<record::Query>& qs,
                                     const std::vector<sim::NodeId>& starts) {
  std::vector<QueryRecord> out(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    Span s(run.tr, "run_query", i + 1);
    auto r = run.fed->run_query(qs[i], starts[i]);
    auto& q = out[i];
    q.query = static_cast<std::uint32_t>(i);
    q.complete = r.complete;
    q.rejected = r.rejected;
    q.sheds = static_cast<std::uint32_t>(r.sheds);
    q.latency_us = static_cast<std::int64_t>(std::llround(r.latency_ms * 1000.0));
    q.matches = r.matching_records;
    if (run.tr.enabled()) q.contacted = std::move(r.contacted);
  }
  return out;
}

void finish(Run& run, Report& rep, const std::vector<QueryRecord>& out,
            const std::vector<record::Query>& queries,
            const std::vector<obs::TraceEvent>& ring,
            const Counters& qc0, const Counters& qc1) {
  util::Fnv1a fp;
  for (const auto& q : out) fold(fp, q);
  for (const auto& m : rep.metrics) {
    if (m.exact) fp.add(m.value);
  }
  rep.fingerprint = fp.value();
  rep.timed_wall_s = run.timed_wall_s;
  if (run.opt.trace) {
    run.add_layer_metrics(rep, qc0, qc1, static_cast<double>(out.size()));
    ReplayInput in{*run.fed, queries, out, ring,
                   run.c1.events - run.c0.events};
    replay_layers(in, run.tr, rep);
  }
  run.write_spans();
}

std::vector<obs::TraceEvent> ring_snapshot(Run& run) {
  if (!run.opt.trace || run.fed->trace() == nullptr) return {};
  return run.fed->trace()->events();
}

// --- query ------------------------------------------------------------------

Report run_query_workload(const Options& o, Tracer& tr) {
  Report rep;
  Run run(o, tr);
  const std::size_t n =
      o.tiny ? 1000
             : std::max<std::size_t>(
                   1000, static_cast<std::size_t>(o.seconds * kQueryRate));
  const auto queries = run.draw_queries(n, o.seed ^ 0x9e37u);
  const auto starts = run.draw_starts(n, 0x51a7u);

  run.set_up(core::RoadsConfig{}, [&run] { run.fed->set_refresh_paused(true); });
  run.check_structure(rep, "after set-up");

  run.begin_timed();
  auto out = closed_loop(run, queries, starts);
  run.end_timed();
  const auto ring = ring_snapshot(run);
  run.check_structure(rep, "after timed phase");

  const auto sim_span = run.c1.sim_s - run.c0.sim_s;
  rep.add("setup_s", run.setup_s, "s");
  rep.add("sim_s_per_wall_s", ratio(sim_span, run.timed_wall_s), "sim_s/s");
  rep.add("peak_rss_mb", run.peak_rss, "MiB");
  rep.add("server_state_kb", run.server_state_kib(), "KiB", true);

  {
    Span s(tr, "oracle");
    const auto oracle = oracle_of_stores(*run.fed, run.geo.attributes);
    for (auto& q : out) q.truth = oracle.count(queries[q.query]);
  }
  run.add_query_metrics(rep, out, run.c1.query_bytes - run.c0.query_bytes,
                        run.timed_wall_s, "query");
  check_full_recall(rep, out, "query");

  // Update overhead of this (churn-free) federation: one metered
  // keepalive cycle with refresh running, after the timed phase.
  {
    Span s(tr, "update_meter");
    run.fed->set_refresh_paused(false);
    const auto b0 = run.fed->network().meter(sim::Channel::kUpdate).bytes;
    const auto cycle = static_cast<sim::Time>(kKeepalive) * kSummaryPeriod;
    run.fed->advance(cycle);
    const auto b1 = run.fed->network().meter(sim::Channel::kUpdate).bytes;
    rep.add("update_bytes_per_s",
            static_cast<double>(b1 - b0) / sim::to_seconds(cycle), "B/sim_s",
            true);
  }
  finish(run, rep, out, queries, ring, run.c0, run.c1);
  return rep;
}

// --- churn ------------------------------------------------------------------

Report run_churn_workload(const Options& o, Tracer& tr) {
  Report rep;
  Run run(o, tr);
  const auto cycle = static_cast<sim::Time>(kKeepalive) * kSummaryPeriod;
  const std::size_t cycles =
      o.tiny ? 1
             : std::max<std::size_t>(
                   1, static_cast<std::size_t>(std::lround(
                          o.seconds * kChurnSimRate / sim::to_seconds(cycle))));
  const std::size_t ticks_per_cycle =
      static_cast<std::size_t>(cycle / kRecordPeriod);
  const std::size_t probes =
      o.tiny ? 1000
             : std::max<std::size_t>(
                   1000, static_cast<std::size_t>(o.seconds * kProbesPerSecond));
  const std::size_t timed_ticks = cycles * ticks_per_cycle;
  // Churn continues for up to 2.5 refresh periods after the timed phase,
  // through the freshness checks.
  const std::size_t check_ticks =
      3 * static_cast<std::size_t>(kSummaryPeriod / kRecordPeriod);
  const auto plan = draw_churn(run.gen, run.geo,
                               std::max<std::size_t>(1, run.geo.records / 20),
                               timed_ticks + check_ticks, o.seed);
  const auto queries = run.draw_queries(probes, o.seed ^ 0x9e37u);
  const auto starts = run.draw_starts(probes, 0x51a7u);

  run.set_up(core::RoadsConfig{}, [] {});
  run.check_structure(rep, "after set-up");

  auto& sim = run.fed->simulator();
  std::size_t next_tick = 0;
  const auto churn_tick = [&] {
    const auto t = next_tick++;
    sim.schedule_after(0, [&run, &plan, t] { run.apply_tick(plan, t); });
    Span s(tr, "advance");
    run.fed->advance(kRecordPeriod);
  };
  run.begin_timed();
  while (next_tick < timed_ticks) churn_tick();
  run.end_timed();
  run.check_structure(rep, "after timed phase");

  const auto sim_span = run.c1.sim_s - run.c0.sim_s;
  rep.add("setup_s", run.setup_s, "s");
  rep.add("sim_s_per_wall_s", ratio(sim_span, run.timed_wall_s), "sim_s/s");
  rep.add("peak_rss_mb", run.peak_rss, "MiB");
  rep.add("server_state_kb", run.server_state_kib(), "KiB", true);
  rep.add("update_bytes_per_s",
          ratio(static_cast<double>(run.c1.update_bytes - run.c0.update_bytes),
                sim_span),
          "B/sim_s", true);
  rep.attempted += plan.tick_begin[timed_ticks];

  // The root's branch summary must still count every record: a refresh
  // path that dropped a subtree's pushes cannot pass as cheaper.
  const auto root = run.fed->topology().root();
  const auto branch = run.fed->server(root).branch_summary();
  const auto total = run.geo.nodes * run.geo.records;
  rep.check(branch != nullptr && branch->record_count() == total,
            "churn: root branch summary counts " +
                std::to_string(branch ? branch->record_count() : 0) + " of " +
                std::to_string(total) + " records");

  // Freshness, with churn still running: refresh waves fire within the
  // first second of each period, so at mid-period every parent must hold
  // each child's current branch summary and every sibling replica its
  // origin's (a push whose content changed is never suppressed). Two
  // consecutive periods cannot both be keepalive waves (K = 3), so a
  // refresh path that drops changed pushes between keepalives fails here.
  for (int k = 0; k < 2; ++k) {
    const auto since = sim.now() - run.started_at;
    auto mid = run.started_at + (since / kSummaryPeriod) * kSummaryPeriod +
               kSummaryPeriod / 2;
    if (mid <= sim.now()) mid += kSummaryPeriod;
    while (sim.now() + kRecordPeriod <= mid) churn_tick();
    run.fed->advance(mid - sim.now());
    const auto stale = stale_summaries(*run.fed);
    rep.check(stale == 0, "churn: " + std::to_string(stale) +
                              " stale child summaries or sibling replicas "
                              "at mid-period " + std::to_string(k + 1));
  }

  // Re-stabilize, then a probe batch at recall 1.0 (closed loop, refresh
  // paused) — also the source of churn's query-side metrics.
  {
    Span s(tr, "restabilize");
    run.fed->stabilize();
    run.fed->set_refresh_paused(true);
  }
  const auto qc0 = read_counters(*run.fed);
  const auto probe_t0 = Clock::now();
  auto out = closed_loop(run, queries, starts);
  const double probe_wall = seconds_since(probe_t0);
  const auto qc1 = read_counters(*run.fed);
  const auto ring = ring_snapshot(run);
  {
    Span s(tr, "oracle");
    const auto oracle = oracle_of_stores(*run.fed, run.geo.attributes);
    for (auto& q : out) q.truth = oracle.count(queries[q.query]);
  }
  run.add_query_metrics(rep, out, qc1.query_bytes - qc0.query_bytes,
                        probe_wall, "churn probe");
  check_full_recall(rep, out, "churn probe");
  finish(run, rep, out, queries, ring, qc0, qc1);
  return rep;
}

// --- serve ------------------------------------------------------------------

Report run_serve_workload(const Options& o, Tracer& tr) {
  Report rep;
  Run run(o, tr);
  constexpr double kRateQps = 100.0;
  constexpr std::size_t kPopulation = 64;
  constexpr std::size_t kIngress = 4;
  constexpr std::uint64_t kDeploymentSeed = 0x5e4e;
  const sim::Time warmup = sim::seconds(20);
  // The timed span covers at least one refresh period, so every server
  // refreshes (and invalidates its cache) inside it.
  const double want_s = o.tiny ? 100.0 : std::max(100.0, o.seconds * kServeSimRate);
  const auto timed = kRecordPeriod *
                     static_cast<sim::Time>(std::ceil(
                         want_s / sim::to_seconds(kRecordPeriod)));

  // The query population and the deployment (delay space, hence where
  // the four ingress servers sit) are part of the workload definition,
  // not of the seed: under Zipf(1.0) a few queries through four gateways
  // carry most arrivals, so per-seed choices would make every metric
  // track whichever queries and gateways the seed drew. The seed drives
  // records, arrivals, rank draws, ingress choice and churn.
  const auto population = run.draw_queries(kPopulation, kDeploymentSeed);
  run.federation_seed = kDeploymentSeed;
  workload::ArrivalSpec spec;
  spec.rate_qps = kRateQps;
  util::Rng arrival_rng(o.seed ^ 0xa441u);
  // Draw enough arrivals to cover warm-up + timed span, then cut.
  const auto expect = static_cast<std::size_t>(
      kRateQps * sim::to_seconds(warmup + timed) * 1.5 + 100);
  auto arrivals = workload::generate_arrivals(spec, expect, arrival_rng);
  if (arrivals.back() < warmup + timed) {
    throw std::runtime_error("serve: arrival plan too short");
  }
  arrivals.erase(std::lower_bound(arrivals.begin(), arrivals.end(),
                                  warmup + timed),
                 arrivals.end());
  workload::ZipfSampler zipf(kPopulation, 1.0);
  util::Rng zipf_rng(o.seed ^ 0x21bfu);
  util::Rng pick(o.seed ^ 0x51a7u);
  std::vector<std::uint16_t> rank(arrivals.size());
  std::vector<sim::NodeId> ingress(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    rank[i] = static_cast<std::uint16_t>(zipf.sample(zipf_rng));
    const auto slot = pick.uniform_int(0, kIngress - 1);
    ingress[i] = static_cast<sim::NodeId>(run.geo.nodes - 1 - slot);
  }
  const std::size_t first_timed = static_cast<std::size_t>(
      std::lower_bound(arrivals.begin(), arrivals.end(), warmup) -
      arrivals.begin());
  const auto ticks =
      static_cast<std::size_t>((warmup + timed) / kRecordPeriod);
  const auto plan = draw_churn(run.gen, run.geo,
                               std::max<std::size_t>(1, run.geo.records / 100),
                               ticks, o.seed);

  core::RoadsConfig cfg;
  cfg.query_cache_enabled = true;
  cfg.query_concurrency_limit = 1;
  cfg.query_queue_limit = 16;
  cfg.query_processing_delay = sim::ms(10);

  // In-flight clients only: finished ones are harvested into `out` (the
  // timed ones) and released as the run goes.
  std::vector<std::shared_ptr<core::RoadsClient>> clients(arrivals.size());
  std::vector<QueryRecord> out(arrivals.size() - first_timed);
  std::size_t issued = 0, harvested = 0, late = 0;
  std::vector<bool> finished(arrivals.size(), false);
  sim::Time base = 0;
  const auto harvest = [&] {
    for (std::size_t i = harvested; i < issued; ++i) {
      auto& c = clients[i];
      if (finished[i] || !c->done()) continue;
      run.fed->note_query_complete(*c);
      if (i >= first_timed) {
        const auto& r = c->result();
        if (r.issued_at != base + arrivals[i]) ++late;
        auto& q = out[i - first_timed];
        q.query = static_cast<std::uint32_t>(i);
        q.complete = r.complete;
        q.rejected = r.rejected;
        q.sheds = static_cast<std::uint32_t>(r.sheds);
        q.latency_us = r.forwarding_latency();
        q.matches = r.matching_records;
        if (o.trace) {
          q.contacted.assign(c->visited().begin(), c->visited().end());
        }
      }
      c.reset();
      finished[i] = true;
    }
    while (harvested < issued && finished[harvested]) ++harvested;
  };

  // Warm-up: churn ticks first, then arrivals, planted as engine events
  // (at equal instants a tick applies before the arrival; the oracle
  // replays the same order); the first `warmup` seconds fill the caches.
  run.set_up(cfg, [&] {
    std::fill(clients.begin(), clients.end(), nullptr);
    std::fill(finished.begin(), finished.end(), false);
    issued = harvested = late = 0;
    auto& sim = run.fed->simulator();
    base = sim.now();
    for (std::size_t t = 0; t < ticks; ++t) {
      sim.schedule_at(base + static_cast<sim::Time>(t) * kRecordPeriod,
                      [&run, &plan, t] { run.apply_tick(plan, t); });
    }
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      sim.schedule_at(base + arrivals[i], [&, i] {
        Span s(tr, "issue_query", i + 1);
        auto& server = run.fed->server(ingress[i]);
        run.queue_depth_max =
            std::max(run.queue_depth_max, server.queued_queries());
        clients[i] = run.fed->issue_query(population[rank[i]], ingress[i]);
        ++issued;
      });
    }
    run.fed->advance(warmup);
    harvest();
  });
  run.check_structure(rep, "after set-up");

  auto& sim = run.fed->simulator();
  run.begin_timed();
  while (sim.now() < base + warmup + timed) {
    Span s(tr, "advance");
    run.fed->advance(kRecordPeriod);
    harvest();
  }
  {
    Span s(tr, "step");
    const auto deadline = sim.now() + sim::seconds(60);
    while (harvested < arrivals.size() && sim.now() <= deadline) {
      if (run.fed->step(1024) == 0) break;
      harvest();
    }
  }
  run.end_timed();
  run.check_structure(rep, "after timed phase");
  const std::size_t not_issued = arrivals.size() - issued;
  const std::size_t unfinished = issued - harvested;
  clients.clear();
  rep.check(unfinished == 0, "serve: every timed query completes (" +
                                 std::to_string(unfinished) + " open)");
  rep.check(not_issued == 0 && late == 0,
            "serve: every arrival fires at its scheduled time (" +
                std::to_string(late) + " late, " + std::to_string(not_issued) +
                " never issued)");
  rep.check(run.c1.invalidations > run.c0.invalidations,
            "serve: timed phase sees a cache invalidation wave");
  std::size_t rejected = 0, shed_events = 0;
  for (const auto& q : out) {
    rejected += q.rejected ? 1 : 0;
    shed_events += q.sheds;
  }
  rep.check(static_cast<double>(shed_events) <
                0.01 * static_cast<double>(out.size()),
            "serve: sheds under 1% (" + std::to_string(shed_events) + " sheds, " +
                std::to_string(rejected) + " rejected)");

  const auto sim_span = run.c1.sim_s - run.c0.sim_s;
  rep.add("setup_s", run.setup_s, "s");
  rep.add("sim_s_per_wall_s", ratio(sim_span, run.timed_wall_s), "sim_s/s");
  rep.add("peak_rss_mb", run.peak_rss, "MiB");
  rep.add("server_state_kb", run.server_state_kib(), "KiB", true);
  rep.add("update_bytes_per_s",
          ratio(static_cast<double>(run.c1.update_bytes - run.c0.update_bytes),
                sim_span),
          "B/sim_s", true);

  // Ground truth at each arrival: the initial records, regenerated, with
  // the churn plan replayed in engine order; per population query match
  // counts maintained incrementally.
  {
    Span s(tr, "oracle");
    Oracle oracle(run.geo.nodes, run.geo.attributes);
    for (std::size_t n = 0; n < run.geo.nodes; ++n) {
      oracle.add_node(n, run.gen.records_for_node(
                             static_cast<std::uint32_t>(n),
                             static_cast<record::OwnerId>(n + 1)));
    }
    std::vector<std::uint64_t> count(population.size());
    for (std::size_t p = 0; p < population.size(); ++p) {
      count[p] = oracle.count(population[p]);
    }
    std::size_t tick = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      while (tick < ticks &&
             static_cast<sim::Time>(tick) * kRecordPeriod <= arrivals[i]) {
        for (std::size_t w = plan.tick_begin[tick];
             w < plan.tick_begin[tick + 1]; ++w) {
          const auto& rw = plan.rewrites[w];
          const auto row = oracle.row(rw.node, rw.index);
          for (std::size_t p = 0; p < population.size(); ++p) {
            count[p] -= oracle.row_matches(population[p], row) ? 1 : 0;
          }
          oracle.set(rw.node, row, rw.attribute, rw.value);
          for (std::size_t p = 0; p < population.size(); ++p) {
            count[p] += oracle.row_matches(population[p], row) ? 1 : 0;
          }
        }
        ++tick;
      }
      if (i >= first_timed) out[i - first_timed].truth = count[rank[i]];
    }
  }
  run.add_query_metrics(rep, out, run.c1.query_bytes - run.c0.query_bytes,
                        run.timed_wall_s, "serve");
  std::vector<record::Query> timed_queries;
  if (o.trace) {
    timed_queries.reserve(out.size());
    for (auto& q : out) {
      timed_queries.push_back(population[rank[q.query]]);
      q.query = static_cast<std::uint32_t>(timed_queries.size() - 1);
    }
  }
  finish(run, rep, out, timed_queries, ring_snapshot(run), run.c0, run.c1);
  return rep;
}

}  // namespace

Report run_workload(const Options& options) {
  Tracer tracer(options.trace);
  if (options.workload == "query") return run_query_workload(options, tracer);
  if (options.workload == "churn") return run_churn_workload(options, tracer);
  if (options.workload == "serve") return run_serve_workload(options, tracer);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench

// Figure 11: total response time vs query selectivity — the paper's
// prototype benchmark. Unlike the forwarding-latency simulations,
// response time includes the server-side record retrieval (their DB2
// backend; our calibrated service-time model) and the transfer of all
// matching records back to the client.
//
// Paper shape: the central repository wins at low selectivity (one
// round trip, few records); as selectivity grows the retrieval cost
// dominates and ROADS catches up (~1%) and wins (~3%) because many leaf
// servers retrieve their shares in parallel while the repository pays
// the whole bill serially.
//
// This bench doubles as the causal-tracing acceptance harness: every
// ROADS query must reconstruct into a complete span tree (no orphan
// spans) whose critical-path decomposition sums to the measured
// latency within 1 us; any violation makes the bench exit non-zero.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "central/central_repository.h"
#include "exp/telemetry.h"
#include "obs/span_tree.h"
#include "roads/federation.h"
#include "util/stats.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace {

using namespace roads;

constexpr std::size_t kNodes = 64;
constexpr std::size_t kRecordsPerNode = 1000;

store::ServiceModelParams service_model() {
  store::ServiceModelParams m;
  // Calibrated to a DB2-like backend: ~0.5 ms to fetch + serialize one
  // matching record dominates at high selectivity.
  m.query_overhead_us = 2000.0;
  m.per_candidate_us = 2.0;
  m.per_result_us = 500.0;
  m.bandwidth_bytes_per_us = 64.0;
  return m;
}

std::int64_t abs64(std::int64_t v) { return v < 0 ? -v : v; }

}  // namespace

int main(int argc, char** argv) {
  auto profile = bench::parse_profile(argc, argv);
  bench::print_header(
      "Figure 11 — total response time vs query selectivity "
      "(ROADS vs central repository)",
      profile);
  const std::size_t queries_per_group = profile.full ? 200 : 40;

  const auto schema = record::Schema::uniform_numeric(16);
  const auto spec =
      workload::WorkloadSpec::paper_default(16, kRecordsPerNode);
  workload::RecordGenerator generator(schema, spec, profile.base.seed);
  generator.anchor_by_balanced_tree(kNodes, 8);

  // --- ROADS federation in result-collection mode ---
  core::FederationParams params;
  params.schema = schema;
  params.seed = profile.base.seed;
  params.config.max_children = 8;
  params.config.collect_results = true;
  params.config.service_model = service_model();
  // Large enough that a whole query's causal tree is never evicted
  // before it is verified (verification happens right after each query).
  params.trace_capacity = profile.base.trace_capacity > 0
                              ? profile.base.trace_capacity
                              : (std::size_t{1} << 16);
  core::Federation fed(std::move(params));
  fed.add_servers(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    const auto node = static_cast<sim::NodeId>(n);
    auto owner = fed.add_owner(node, core::ExportMode::kDetailedRecords);
    for (auto& r : generator.records_for_node(static_cast<std::uint32_t>(n),
                                              owner->id())) {
      owner->store().insert(std::move(r));
    }
    fed.server(node).attach_owner(owner, core::ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();
  // Telemetry over the query phase: a 5 s window (unless overridden)
  // resolves the per-selectivity-group load swings, and the staleness
  // series shows soft state ageing while refresh is paused below.
  exp::TelemetryOptions topts;
  topts.timeline.window = profile.base.probe_interval > 0
                              ? profile.base.probe_interval
                              : sim::seconds(5);
  topts.audit_seed = profile.base.seed ^ 0x0b5e;
  const auto timeline = exp::attach_timeline(fed, topts);
  exp::start_timeline(fed, *timeline);
  fed.set_refresh_paused(true);

  // --- Central repository with the same records ---
  central::CentralParams cparams;
  cparams.schema = schema;
  cparams.seed = profile.base.seed;
  cparams.service_model = service_model();
  central::CentralRepository repo(kNodes, cparams);
  std::vector<record::ResourceRecord> all_records;
  for (std::size_t n = 0; n < kNodes; ++n) {
    auto records = generator.records_for_node(static_cast<std::uint32_t>(n),
                                              static_cast<record::OwnerId>(n));
    for (const auto& r : records) all_records.push_back(r);
    repo.set_records(static_cast<sim::NodeId>(n + 1), std::move(records));
  }
  repo.run_export_round();

  // Calibration sample for selectivity targeting (every 8th record).
  std::vector<record::ResourceRecord> sample;
  for (std::size_t i = 0; i < all_records.size(); i += 8) {
    sample.push_back(all_records[i]);
  }

  util::Table table({"selectivity", "matches", "roads_ms", "roads_p90",
                     "central_ms", "central_p90"});
  workload::QueryGenerator qgen(schema, spec, profile.base.seed ^ 0xf16);
  util::Rng pick(profile.base.seed ^ 0x11);

  // Per-query causal-trace verification (the tracing acceptance gate).
  std::size_t traces_verified = 0;
  std::size_t trace_violations = 0;
  std::vector<std::string> trace_errors;
  const auto violation = [&](const std::string& what) {
    ++trace_violations;
    if (trace_errors.size() < 8) trace_errors.push_back(what);
  };
  const auto verify_trace = [&](const core::QueryOutcome& r) {
    if (r.trace_id == 0 || fed.trace() == nullptr) {
      violation("query produced no trace id");
      return;
    }
    const auto tag = "trace " + std::to_string(r.trace_id);
    const auto tree = obs::SpanTree::build(fed.trace()->events());
    if (const auto orphans = tree.orphans(r.trace_id); !orphans.empty()) {
      violation(tag + ": " + std::to_string(orphans.size()) +
                " orphan span(s)");
    }
    if (!r.forwarding_path || !r.forwarding_path->complete) {
      violation(tag + ": forwarding critical path incomplete");
    } else {
      const auto want =
          static_cast<std::int64_t>(std::llround(r.latency_ms * 1000.0));
      if (abs64(r.forwarding_path->total_us - want) > 1) {
        violation(tag + ": forwarding decomposition " +
                  std::to_string(r.forwarding_path->total_us) +
                  "us != measured " + std::to_string(want) + "us");
      }
    }
    if (r.response_path) {
      if (!r.response_path->complete) {
        violation(tag + ": response critical path incomplete");
      } else {
        const auto want =
            static_cast<std::int64_t>(std::llround(r.response_ms * 1000.0));
        if (abs64(r.response_path->total_us - want) > 1) {
          violation(tag + ": response decomposition " +
                    std::to_string(r.response_path->total_us) +
                    "us != measured " + std::to_string(want) + "us");
        }
      }
    }
    ++traces_verified;
  };
  for (const double sel :
       {0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03}) {
    util::Samples roads_ms;
    util::Samples central_ms;
    util::RunningStat match_counts;
    std::size_t produced = 0;
    std::size_t attempts = 0;
    while (produced < queries_per_group && attempts < queries_per_group * 8) {
      ++attempts;
      auto q = qgen.generate_with_selectivity(sample, sel, 0.4, 6);
      if (!q) continue;
      ++produced;
      const auto start = static_cast<sim::NodeId>(
          pick.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
      const auto r = fed.run_query(*q, start);
      if (r.complete) {
        roads_ms.add(r.response_ms);
        match_counts.add(static_cast<double>(r.matching_records));
        verify_trace(r);
      }
      const auto c = repo.run_query(*q, static_cast<sim::NodeId>(start + 1));
      if (c.complete) central_ms.add(c.response_ms);
    }
    table.add_row({util::Table::num(sel * 100.0, 2) + "%",
                   util::Table::num(match_counts.mean(), 0),
                   util::Table::num(roads_ms.mean(), 0),
                   util::Table::num(roads_ms.percentile(90.0), 0),
                   util::Table::num(central_ms.mean(), 0),
                   util::Table::num(central_ms.percentile(90.0), 0)});
  }
  table.print(std::cout);

  // This bench drives the federation itself (no exp-driver runs), so
  // honor the uniform observability flags here.
  if (!profile.base.trace_out.empty() && fed.trace() != nullptr) {
    std::ofstream os(profile.base.trace_out);
    if (os) {
      obs::write_chrome_trace(*fed.trace(), os);
      std::cerr << "wrote " << profile.base.trace_out << "\n";
    }
  }
  if (!profile.base.metrics_out.empty()) {
    std::ofstream os(profile.base.metrics_out);
    if (os) {
      obs::write_prometheus(fed.network().metrics(), os);
      std::cerr << "wrote " << profile.base.metrics_out << "\n";
    }
  }
  const std::string tl_prefix = profile.base.timeline_out.empty()
                                    ? "TIMELINE_fig11_response_time"
                                    : profile.base.timeline_out;
  {
    std::ofstream os(tl_prefix + ".csv");
    if (os) {
      timeline->write_csv(os);
      std::cerr << "wrote " << tl_prefix << ".csv\n";
    }
  }
  {
    std::ofstream os(tl_prefix + ".jsonl");
    if (os) {
      timeline->write_jsonl(os);
      std::cerr << "wrote " << tl_prefix << ".jsonl\n";
    }
  }

  int rc = bench::finish_report("fig11_response_time", profile, table);
  std::printf("\ncausal trace: %zu queries verified", traces_verified);
  if (trace_violations > 0) {
    std::printf(", %zu VIOLATION(S)\n", trace_violations);
    for (const auto& e : trace_errors) std::printf("  %s\n", e.c_str());
    rc = 1;
  } else {
    std::printf(
        " (complete span trees, critical-path sums exact to 1 us)\n");
  }
  std::printf(
      "\npaper shape: central faster at low selectivity (one round trip); "
      "ROADS\ncomparable at ~1%% and faster at ~3%% (parallel retrieval "
      "across leaf servers).\n");
  return rc;
}

// Figure 3: query resolving latency vs number of nodes (64..640).
// Paper: ROADS grows logarithmically (it is bounded by hierarchy depth,
// with a visible jump when the depth increases, e.g. at 640 nodes) and
// stays 40-60% below SWORD, which grows linearly because the query
// sequentially traverses a ring segment proportional to system size.
//
// Each sweep point also runs the telemetry timeline (one window per
// summary period unless --probe-interval overrides) and writes the
// seed run's per-window series to TIMELINE_fig3_latency_nodes_n<N>.*;
// the conv_s column is the averaged warm-up cutoff the convergence
// detector measured (-1 = never converged within the run).
//
// Scaling leg: --nodes past 640 extends the sweep by doubling (1280,
// 2560, ... 10240), and --threads=N runs each ROADS repetition on the
// sharded parallel engine. The speedup column is then the ratio of the
// engine-bound wall clock (stabilization + metered advance, see
// RunMetrics::engine_wall_s) between a 1-thread reference run and the
// N-thread run at the same point — every reported metric is
// bit-identical between the two, so the speedup costs nothing in
// fidelity. SWORD's ring traversal is O(n) per query and is not what
// the scaling leg measures, so points past 640 skip the SWORD columns;
// the timeline sampler is sequential-only and is skipped when
// --threads > 1 (conv_s reads 0 there).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace roads;
  auto profile = bench::parse_profile(argc, argv);
  bench::print_header(
      "Figure 3 — query latency vs number of nodes (ROADS vs SWORD)",
      profile);

  const bool sharded = profile.base.threads > 1;
  const std::string timeline_prefix = profile.base.timeline_out.empty()
                                          ? "TIMELINE_fig3_latency_nodes"
                                          : profile.base.timeline_out;
  util::Table table({"nodes", "threads", "roads_ms", "roads_p90", "sword_ms",
                     "sword_p90", "sword/roads", "roads_height",
                     "roads_done%", "conv_s", "engine_s", "speedup"});
  for (const auto n : bench::node_sweep(profile.full, profile.base.nodes)) {
    auto cfg = profile.base;
    cfg.nodes = n;
    cfg.timeline_out =
        sharded ? "" : timeline_prefix + "_n" + std::to_string(n);
    const auto roads = exp::average_runs(cfg, exp::run_roads_once);
    double speedup = 1.0;
    if (sharded) {
      auto ref = cfg;
      ref.threads = 1;
      // The reference leg is timing-only: keep it from overwriting the
      // sharded run's observability outputs.
      ref.trace_out.clear();
      ref.metrics_out.clear();
      ref.timeline_out.clear();
      ref.profile_out.clear();
      const auto sequential = exp::average_runs(ref, exp::run_roads_once);
      speedup =
          sequential.engine_wall_s / std::max(roads.engine_wall_s, 1e-9);
    }
    const bool with_sword = n <= 640;
    exp::RunMetrics sword;
    if (with_sword) sword = exp::average_runs(cfg, exp::run_sword_once);
    // Completed-query fraction: 100% without faults; under --fault-*
    // this is the degradation headline (lost redirects strand queries).
    const double done_pct = 100.0 * roads.queries_completed /
                            static_cast<double>(std::max<std::size_t>(
                                1, cfg.queries));
    table.add_row({std::to_string(n), std::to_string(cfg.threads),
                   util::Table::num(roads.latency_avg_ms, 0),
                   util::Table::num(roads.latency_p90_ms, 0),
                   with_sword ? util::Table::num(sword.latency_avg_ms, 0) : "-",
                   with_sword ? util::Table::num(sword.latency_p90_ms, 0) : "-",
                   with_sword
                       ? util::Table::num(
                             sword.latency_avg_ms /
                                 std::max(roads.latency_avg_ms, 1.0),
                             2)
                       : "-",
                   util::Table::num(roads.hierarchy_height, 0),
                   util::Table::num(done_pct, 1),
                   util::Table::num(roads.converged_at_s, 0),
                   util::Table::num(roads.engine_wall_s, 2),
                   util::Table::num(speedup, 2)});
  }
  table.print(std::cout);
  const int rc = bench::finish_report("fig3_latency_nodes", profile, table);
  std::printf(
      "\npaper shape: ROADS ~log (depth-bound, jump when height grows), "
      "SWORD linear;\nROADS 40-60%% lower latency at scale. speedup = "
      "1-thread engine wall / N-thread\nengine wall at the same point "
      "(bit-identical metrics either way).\n");
  return rc;
}

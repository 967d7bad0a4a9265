// Figure 5: query message overhead vs number of nodes. ROADS pays more
// per query than SWORD (the paper reports 2-5x) because voluntary
// sharing keeps records at their owners, so the query must visit every
// server with matching data; SWORD hashes matching records onto a small
// ring segment. The paper's point: this is the price of the orders-of-
// magnitude update savings in Fig. 4, and updates dominate.
//
// Scaling leg (same contract as fig3): --nodes past 640 doubles the
// sweep out to that count, --threads=N runs ROADS on the sharded
// parallel engine with an engine-wall speedup column against a
// 1-thread reference, and SWORD (O(n) ring traversal per query) is
// skipped past the paper's range.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace roads;
  auto profile = bench::parse_profile(argc, argv);
  bench::print_header(
      "Figure 5 — query message overhead (bytes) vs number of nodes",
      profile);

  const bool sharded = profile.base.threads > 1;
  util::Table table({"nodes", "threads", "roads_B", "sword_B", "roads/sword",
                     "roads_servers", "sword_servers", "engine_s",
                     "speedup"});
  for (const auto n : bench::node_sweep(profile.full, profile.base.nodes)) {
    auto cfg = profile.base;
    cfg.nodes = n;
    const auto roads = exp::average_runs(cfg, exp::run_roads_once);
    double speedup = 1.0;
    if (sharded) {
      auto ref = cfg;
      ref.threads = 1;
      // Timing-only reference: do not overwrite observability outputs.
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
    table.add_row(
        {std::to_string(n), std::to_string(cfg.threads),
         util::Table::num(roads.query_bytes_avg, 0),
         with_sword ? util::Table::num(sword.query_bytes_avg, 0) : "-",
         with_sword ? util::Table::num(roads.query_bytes_avg /
                                           std::max(sword.query_bytes_avg, 1.0),
                                       1)
                    : "-",
         util::Table::num(roads.servers_contacted_avg, 1),
         with_sword ? util::Table::num(sword.servers_contacted_avg, 1) : "-",
         util::Table::num(roads.engine_wall_s, 2),
         util::Table::num(speedup, 2)});
  }
  table.print(std::cout);
  const int rc = bench::finish_report("fig5_query_nodes", profile, table);
  std::printf(
      "\npaper shape: ROADS above SWORD (2-5x in the paper; voluntary "
      "sharing\nforces visiting every owner with matches), both growing "
      "with system size.\n");
  return rc;
}

// §IV analysis: evaluates the paper's closed-form overhead models
// (eqs. 1-4) at the paper's parameter point, and validates the model
// scaling against the measured simulator on a common configuration.
#include <cmath>

#include "bench_common.h"

#include "analysis/cost_models.h"

int main(int argc, char** argv) {
  using namespace roads;
  auto profile = bench::parse_profile(argc, argv);
  profile.base.queries = 0;
  bench::print_header("Analysis (§IV) — overhead models vs measurement",
                      profile);

  // (a) Models at the paper's example point (r=25, m=100, k=5, L=4,
  // 156 servers, tr/ts = 0.1).
  const auto p = analysis::ModelParams::paper_example();
  util::Table model({"quantity", "formula", "per-second value"});
  model.add_row({"ROADS update (eq.1)", "rm(N + kn*logn)/ts",
                 util::Table::sci(analysis::roads_update_overhead(p))});
  model.add_row({"SWORD update (eq.2)", "r^2*K*N*logn/tr",
                 util::Table::sci(analysis::sword_update_overhead(p))});
  model.add_row({"Central update (eq.3)", "r*K*N/tr",
                 util::Table::sci(analysis::central_update_overhead(p))});
  model.add_row({"ROADS maint. (eq.4)", "k^2*logn/ts msgs/s",
                 util::Table::num(analysis::roads_maintenance_msgs_per_s(p),
                                  2)});
  model.print(std::cout);
  std::printf(
      "ROADS/SWORD update ratio (model): %.2e  (paper: 1-2 orders of "
      "magnitude less)\n\n",
      analysis::roads_update_overhead(p) /
          analysis::sword_update_overhead(p));

  // (b) Measured scaling: the simulator's update overhead should follow
  // the model's growth law (x n*logn for ROADS; x K for SWORD).
  util::Table scaling({"nodes", "roads_B/round", "roads_msgs/round",
                       "model k*n*logn msgs", "sword_B/round"});
  for (const std::size_t n : {64u, 160u, 320u}) {
    auto cfg = profile.base;
    cfg.nodes = n;
    cfg.runs = 1;
    const auto roads = exp::run_roads_once(cfg, cfg.seed);
    const auto sword = exp::run_sword_once(cfg, cfg.seed);
    analysis::ModelParams mp;
    mp.servers = static_cast<double>(n);
    mp.children = static_cast<double>(cfg.max_children);
    const double model_msgs =
        mp.children * mp.servers * std::log2(static_cast<double>(n));
    scaling.add_row({std::to_string(n),
                     util::Table::sci(roads.update_bytes_per_round),
                     util::Table::num(roads.maintenance_msgs_per_round, 0),
                     util::Table::num(model_msgs, 0),
                     util::Table::sci(sword.update_bytes_per_round)});
  }
  scaling.print(std::cout);
  const int rc = bench::finish_report("analysis_models", profile, scaling);
  std::printf(
      "\nexpected: measured ROADS messages/round track the O(k*n*logn) "
      "model within a\nsmall constant; ROADS bytes ~2 orders below SWORD "
      "after the ts/tr=10 normalization.\n");
  return rc;
}

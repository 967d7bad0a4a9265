// Table I: per-server storage overhead — ROADS rmk(i+1) vs SWORD
// r^2KN/n vs central rKN. Prints (a) the paper's closed-form models at
// the paper's parameter point, and (b) measured per-server storage from
// live systems while sweeping records per node, showing the paper's
// core claim: ROADS storage is constant in data volume (summaries),
// the baselines grow linearly (raw records).
#include "bench_common.h"

#include "analysis/cost_models.h"
#include "record/record.h"

int main(int argc, char** argv) {
  using namespace roads;
  auto profile = bench::parse_profile(argc, argv);
  profile.base.queries = 0;
  bench::print_header("Table I — storage overhead per server", profile);

  // (a) The paper's analytical point: N=10^3 owners, K=10^4 records,
  // r=25 attributes, m=100 buckets, k=5 children, L=4 levels.
  const auto p = analysis::ModelParams::paper_example();
  const auto levels = analysis::levels_for(p.servers, p.children);
  util::Table model({"model", "formula", "value (units)"});
  model.add_row({"ROADS (leaf, worst)", "r*m*k*(L+1)",
                 util::Table::sci(analysis::roads_storage(p, levels))});
  model.add_row({"SWORD", "r^2*K*N/n",
                 util::Table::sci(analysis::sword_storage(p))});
  model.add_row(
      {"Central", "r*K*N", util::Table::sci(analysis::central_storage(p))});
  model.print(std::cout);
  std::printf(
      "(paper's exemplary values: 2e5 / 6.4e8 / 1e9 — same ordering and "
      "orders of\nmagnitude; see EXPERIMENTS.md for the exact-constant "
      "discussion)\n\n");

  // (b) Measured: worst-case per-server stored bytes, sweeping records.
  util::Table table({"records/node", "roads_B(max)", "sword_B(max)",
                     "central_B", "central/roads"});
  for (const std::size_t records : {100u, 250u, 500u, 1000u, 2000u}) {
    auto cfg = profile.base;
    cfg.nodes = 160;
    cfg.records_per_node = records;
    cfg.runs = 1;
    const auto roads = exp::run_roads_once(cfg, cfg.seed);
    const auto sword = exp::run_sword_once(cfg, cfg.seed);
    // Central repository stores every record of the 160 nodes, each at
    // its wire size under the run's numeric schema.
    const record::ResourceRecord sample(
        0, 0,
        std::vector<record::AttributeValue>(cfg.attributes,
                                            record::AttributeValue(0.0)));
    const double central_bytes = static_cast<double>(records) * 160.0 *
                                  static_cast<double>(sample.wire_size());
    table.add_row(
        {std::to_string(records), util::Table::sci(roads.max_storage_bytes),
         util::Table::sci(sword.max_storage_bytes),
         util::Table::sci(central_bytes),
         util::Table::num(central_bytes /
                              std::max(roads.max_storage_bytes, 1.0),
                          1)});
  }
  table.print(std::cout);
  const int rc = bench::finish_report("table1_storage", profile, table);
  std::printf(
      "\npaper shape: ROADS per-server storage is constant in record "
      "count\n(summaries); SWORD and central grow linearly, so the gap "
      "widens with data.\n");
  return rc;
}

// The deployment every run driver measures, and the one open-loop drive.
// The deployment is the paper's Fig. 1 at §V scale: each server hosts
// one co-located owner exporting detailed records, and ROADS, SWORD and
// the central repository all take their records from one generator.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "record/query.h"
#include "roads/federation.h"
#include "sim/time.h"
#include "workload/record_generator.h"

namespace roads::exp {

class Deployment {
 public:
  /// The schema is uniform numeric over `spec`'s attributes. The data
  /// is drawn from `params.seed`, as every driver seeds data and
  /// federation alike, and anchored by each node's DFS rank in the
  /// balanced hierarchy of degree `params.config.max_children` that the
  /// join protocol builds (DESIGN.md §2), so branch summaries can prune.
  Deployment(core::FederationParams params, std::size_t nodes,
             const workload::WorkloadSpec& spec);

  std::size_t nodes() const { return nodes_; }
  const record::Schema& schema() const { return generator_.schema(); }
  const workload::WorkloadSpec& spec() const { return generator_.spec(); }
  /// The baselines' record source. Record ids and values do not depend
  /// on the owner id a baseline loads a node under.
  const workload::RecordGenerator& generator() const { return generator_; }

  /// The federation, not yet started: the servers joined in id order,
  /// then one owner per server in id order (so server n's owner id is
  /// n + 1), filled from the generator and attached.
  std::unique_ptr<core::Federation> build_federation() const;

 private:
  core::FederationParams params_;
  std::size_t nodes_;
  workload::RecordGenerator generator_;
};

/// One pre-drawn arrival: `query` is issued at server `start`, `delay`
/// after the drive begins.
struct Arrival {
  sim::Time delay = 0;
  record::Query query;
  sim::NodeId start = 0;
};

/// Plants each arrival as an engine event that calls
/// Federation::issue_query, then steps the engine with Federation::step
/// (exact global order, so safe with clients in flight at any thread
/// count) until every client is done, and notes each completion once.
/// Returns the clients in arrival order; throws if they never finish.
std::vector<std::shared_ptr<core::RoadsClient>> drive_open_loop(
    core::Federation& fed, const std::vector<Arrival>& arrivals);

}  // namespace roads::exp

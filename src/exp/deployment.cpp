#include "exp/deployment.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace roads::exp {

namespace {

/// Events per Federation::step of the drain, which checks for completion
/// between batches, and the batches before a drain counts as runaway.
constexpr std::size_t kStepBatch = 1024;
constexpr std::size_t kMaxStepBatches = 500'000;

}  // namespace

Deployment::Deployment(core::FederationParams params, std::size_t nodes,
                       const workload::WorkloadSpec& spec)
    : params_(std::move(params)),
      nodes_(nodes),
      generator_(record::Schema::uniform_numeric(spec.attributes.size()), spec,
                 params_.seed) {
  params_.schema = generator_.schema();
  generator_.anchor_by_balanced_tree(nodes_, params_.config.max_children);
}

std::unique_ptr<core::Federation> Deployment::build_federation() const {
  auto fed = std::make_unique<core::Federation>(params_);
  fed->add_servers(nodes_);
  for (std::size_t n = 0; n < nodes_; ++n) {
    const auto node = static_cast<sim::NodeId>(n);
    auto owner = fed->add_owner(node, core::ExportMode::kDetailedRecords);
    for (auto& r : generator_.records_for_node(node, owner->id())) {
      owner->store().insert(std::move(r));
    }
    fed->server(node).attach_owner(owner, core::ExportMode::kDetailedRecords);
  }
  return fed;
}

std::vector<std::shared_ptr<core::RoadsClient>> drive_open_loop(
    core::Federation& fed, const std::vector<Arrival>& arrivals) {
  std::vector<std::shared_ptr<core::RoadsClient>> clients(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    fed.network().simulator().schedule_after(
        arrivals[i].delay, [&fed, &clients, &arrivals, i] {
          clients[i] = fed.issue_query(arrivals[i].query, arrivals[i].start);
        });
  }
  const auto open = [](const auto& c) { return !c || !c->done(); };
  for (std::size_t batch = 0;
       std::any_of(clients.begin(), clients.end(), open); ++batch) {
    if (batch == kMaxStepBatches || fed.step(kStepBatch) == 0) {
      throw std::runtime_error("open-loop drive: clients never finished");
    }
  }
  for (const auto& c : clients) fed.note_query_complete(*c);
  return clients;
}

}  // namespace roads::exp

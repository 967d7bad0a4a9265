#include "central/central_repository.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace roads::central {

namespace {
constexpr std::uint64_t kQueryHeader = 1;
constexpr std::uint64_t kReplyHeader = 16;
}  // namespace

CentralRepository::CentralRepository(std::size_t client_nodes,
                                     CentralParams params)
    : params_(std::move(params)),
      rng_(params_.seed),
      trace_(params_.trace_capacity > 0
                 ? std::make_unique<obs::TraceBuffer>(params_.trace_capacity)
                 : nullptr),
      simulator_(),
      delay_space_(client_nodes + 1, rng_.fork(0x5e1f), params_.delay),
      network_(simulator_, delay_space_, rng_.fork(0x2e70), nullptr,
               trace_.get()),
      node_count_(client_nodes + 1),
      store_(params_.schema),
      lookup_us_(network_.metrics().histogram("central.lookup_us")),
      store_us_(network_.metrics().histogram("central.store_us")),
      export_rounds_(network_.metrics().counter("central.export_rounds")) {}

void CentralRepository::set_records(
    sim::NodeId owner, std::vector<record::ResourceRecord> records) {
  if (owner >= node_count_) {
    throw std::out_of_range("CentralRepository: unknown owner node");
  }
  owner_records_[owner] = std::move(records);
}

std::uint64_t CentralRepository::run_export_round() {
  const auto before = network_.meter(sim::Channel::kUpdate).bytes;
  export_rounds_.inc();
  {
    obs::ScopedTimer timer(store_us_);
    // Soft-state refresh: rebuild the repository from current exports.
    store_ = store::RecordStore(params_.schema);
    for (const auto& [owner, records] : owner_records_) {
      std::uint64_t bytes = 0;
      for (const auto& r : records) {
        bytes += r.wire_size();
        store_.insert(r);
      }
      if (owner != repository_node() && bytes > 0) {
        network_.send_bulk(owner, repository_node(), records.size(), bytes,
                           sim::Channel::kUpdate, [] {});
      }
    }
  }
  simulator_.run();
  return network_.meter(sim::Channel::kUpdate).bytes - before;
}

CentralQueryOutcome CentralRepository::run_query(const record::Query& query,
                                                 sim::NodeId client) {
  const auto query_before = network_.meter(sim::Channel::kQuery).bytes;
  const auto result_before = network_.meter(sim::Channel::kResult).bytes;

  struct Run {
    bool done = false;
    sim::Time reply_at = 0;
    sim::Time results_at = 0;
    std::size_t matches = 0;
  };
  auto run = std::make_shared<Run>();
  const sim::Time issued_at = simulator_.now();

  // Roots the query's causal tree (client transit -> service span ->
  // result transit), mirroring the ROADS side's trace shape.
  sim::TraceSpan trace_root(network_, client, "central_query");
  network_.send(
      client, repository_node(), query.wire_size() + kQueryHeader,
      sim::Channel::kQuery, [this, run, query, client] {
        store::QueryStats stats{};
        std::vector<record::RecordId> ids;
        {
          obs::ScopedTimer timer(lookup_us_);
          ids = store_.query(query, &stats);
        }
        std::uint64_t record_bytes = 0;
        for (const auto id : ids) record_bytes += store_.wire_size(id);
        const auto service =
            store::service_time_us(params_.service_model, stats, record_bytes);
        run->matches = ids.size();
        // One combined reply+results message once retrieval finishes;
        // the retrieval window is a service span, like the ROADS side's.
        network_.defer(repository_node(), service, "service",
                       [this, run, client, record_bytes] {
                         network_.send(repository_node(), client,
                                       kReplyHeader + record_bytes,
                                       sim::Channel::kResult, [this, run] {
                                         run->reply_at = simulator_.now();
                                         run->results_at = simulator_.now();
                                         run->done = true;
                                       });
                       });
      });

  std::size_t guard = 0;
  while (!run->done && simulator_.run_steps(1) > 0) {
    if (++guard > 10'000'000) {
      throw std::runtime_error("CentralRepository: query did not complete");
    }
  }

  CentralQueryOutcome out;
  out.complete = run->done;
  out.latency_ms = sim::to_ms(run->reply_at - issued_at);
  out.response_ms = sim::to_ms(run->results_at - issued_at);
  out.query_bytes = network_.meter(sim::Channel::kQuery).bytes - query_before;
  out.result_bytes =
      network_.meter(sim::Channel::kResult).bytes - result_before;
  out.matching_records = run->matches;
  return out;
}

}  // namespace roads::central

#include "roads/owner.h"

namespace roads::core {

ResourceOwner::ResourceOwner(record::OwnerId id, sim::NodeId node,
                             record::Schema schema)
    : id_(id),
      node_(node),
      store_(std::move(schema)),
      policy_([](Principal, const record::ResourceRecord&) { return true; }) {}

summary::ResourceSummary ResourceOwner::export_summary(
    const summary::SummaryConfig& config) const {
  return store_.summarize(config);
}

std::vector<record::ResourceRecord> ResourceOwner::answer(
    Principal requester, const record::Query& q) const {
  std::vector<record::ResourceRecord> out;
  for (const auto id : store_.query(q)) {
    auto r = store_.get(id);
    if (policy_(requester, r)) out.push_back(std::move(r));
  }
  return out;
}

std::size_t ResourceOwner::answer_count(Principal requester,
                                        const record::Query& q) const {
  std::size_t count = 0;
  for (const auto id : store_.query(q)) {
    if (policy_(requester, store_.get(id))) ++count;
  }
  return count;
}

}  // namespace roads::core

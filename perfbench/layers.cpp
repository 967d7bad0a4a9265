// Post-phase layer replays (traced run only). Each replays one layer's
// public kernel on the run's own inputs — its queries against the
// stores and summaries the queries actually visited, its own summaries,
// its own trace ring — outside the timed phase, and reports the kernel
// cost per call.
#include <algorithm>
#include <chrono>

#include "bench.h"
#include "obs/span_tree.h"
#include "sim/delay_space.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace perfbench {

using namespace roads;

/// Replay results fold into this external-linkage sink so the compiler
/// cannot drop the replayed calls.
std::size_t replay_sink = 0;

namespace {

std::size_t& sink = replay_sink;

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t).count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Replays are bounded so the traced run stays well inside its budget.
constexpr std::size_t kMaxReplayQueries = 400;
constexpr std::size_t kMaxDispatchEvents = 200'000;
constexpr std::size_t kSendMessages = 100'000;
constexpr std::size_t kSpanTreeRepeats = 20;

void replay_store(const ReplayInput& in, Tracer& tr, Report& rep) {
  Span s(tr, "replay.store");
  const auto n = std::min(in.outcomes.size(), kMaxReplayQueries);
  double ns = 0.0;
  std::size_t calls = 0, scanned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& q = in.queries[in.outcomes[i].query];
    for (const auto node : in.outcomes[i].contacted) {
      if (node >= in.fed.server_count()) continue;
      const auto& store = in.fed.server(node).local_store();
      store::QueryStats st{};
      const auto t = Clock::now();
      sink += store.query(q, &st).size();
      ns += ns_since(t);
      ++calls;
      scanned += st.candidates_scanned;
    }
  }
  rep.add("store.records_scanned_per_query",
          ratio(static_cast<double>(scanned), static_cast<double>(n)),
          "records/query");
  rep.add("store.query_ns", ratio(ns, static_cast<double>(calls)), "ns");
}

void replay_summary_match(const ReplayInput& in, Tracer& tr, Report& rep) {
  Span s(tr, "replay.summary_match");
  const auto n = std::min(in.outcomes.size(), kMaxReplayQueries);
  double ns = 0.0;
  std::size_t probes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& q = in.queries[in.outcomes[i].query];
    for (const auto node : in.outcomes[i].contacted) {
      if (node >= in.fed.server_count()) continue;
      const auto& server = in.fed.server(node);
      const auto t = Clock::now();
      for (const auto& [child, summary] : server.child_summaries()) {
        if (summary) {
          sink += summary->matches(q) ? 1 : 0;
          ++probes;
        }
      }
      for (const auto* r : server.replicas().all()) {
        sink += r->summary->matches(q) ? 1 : 0;
        ++probes;
      }
      ns += ns_since(t);
    }
  }
  rep.add("summary.probes_per_query",
          ratio(static_cast<double>(probes), static_cast<double>(n)),
          "probes/query");
  rep.add("summary.match_ns", ratio(ns, static_cast<double>(probes)), "ns");
}

void replay_summary_digest_merge(const ReplayInput& in, Tracer& tr,
                                 Report& rep) {
  Span s(tr, "replay.summary_digest_merge");
  double digest_ns = 0.0, merge_ns = 0.0;
  std::size_t digests = 0, merges = 0;
  for (auto* server : in.fed.servers()) {
    const auto branch = server->branch_summary();
    if (branch) {
      const auto t = Clock::now();
      sink += branch->digest() & 1;
      digest_ns += ns_since(t);
      ++digests;
    }
    summary::ResourceSummary acc(in.fed.schema(), in.fed.config().summary);
    for (const auto& [child, summary] : server->child_summaries()) {
      if (!summary) continue;
      const auto t = Clock::now();
      acc.merge(*summary);
      merge_ns += ns_since(t);
      ++merges;
    }
    sink += acc.record_count();
  }
  rep.add("summary.digest_ns", ratio(digest_ns, static_cast<double>(digests)),
          "ns");
  rep.add("summary.merge_ns", ratio(merge_ns, static_cast<double>(merges)),
          "ns");
}

void replay_dispatch(const ReplayInput& in, Tracer& tr, Report& rep) {
  Span s(tr, "replay.sim_dispatch");
  const auto n = std::max<std::size_t>(
      1, std::min<std::size_t>(in.timed_events, kMaxDispatchEvents));
  sim::Simulator engine;
  util::Rng rng(0xd15u);
  std::size_t ran = 0;
  const auto t = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    engine.schedule_after(rng.uniform_int(0, 1'000'000), [&ran] { ++ran; });
  }
  engine.run();
  rep.add("sim.dispatch_ns", ratio(ns_since(t), static_cast<double>(n)), "ns");
  sink += ran;
}

void replay_send(const ReplayInput& in, Tracer& tr, Report& rep) {
  Span s(tr, "replay.net_send");
  const auto nodes = in.fed.server_count();
  sim::Simulator engine;
  sim::DelaySpace space(nodes, util::Rng(0x5e4du));
  obs::MetricsRegistry registry;
  sim::Network net(engine, space, util::Rng(0x5e4eu), &registry);
  util::Rng rng(0x5e4fu);
  std::size_t delivered = 0;
  const auto t = Clock::now();
  for (std::size_t i = 0; i < kSendMessages; ++i) {
    const auto from = static_cast<sim::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    const auto to = static_cast<sim::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    net.send(from, to, 64, sim::Channel::kUpdate, [&delivered] { ++delivered; });
    if (i % 1024 == 1023) engine.run();
  }
  engine.run();
  rep.add("sim.net.send_ns",
          ratio(ns_since(t), static_cast<double>(kSendMessages)), "ns");
  sink += delivered;
}

void replay_span_tree(const ReplayInput& in, Tracer& tr, Report& rep) {
  Span s(tr, "replay.span_tree");
  // The last query root in the ring: the tree run_query would build.
  std::uint64_t root = 0;
  for (const auto& e : in.ring) {
    if (e.kind == obs::TraceKind::kQueryStart) root = e.span;
  }
  double ns = 0.0;
  if (!in.ring.empty()) {
    const auto t = Clock::now();
    for (std::size_t i = 0; i < kSpanTreeRepeats; ++i) {
      const auto tree = obs::SpanTree::build(in.ring);
      const auto path = obs::query_critical_path(
          tree, root, obs::QueryEndpoint::kForwarding);
      sink += path.hops;
    }
    ns = ns_since(t) / kSpanTreeRepeats;
  }
  rep.add("obs.span_tree_build_us", ns / 1000.0, "us");
}

}  // namespace

void replay_layers(const ReplayInput& in, Tracer& tr, Report& rep) {
  replay_store(in, tr, rep);
  replay_summary_match(in, tr, rep);
  replay_summary_digest_merge(in, tr, rep);
  replay_dispatch(in, tr, rep);
  replay_send(in, tr, rep);
  replay_span_tree(in, tr, rep);
}

}  // namespace perfbench

// Tunables of a ROADS deployment. One RoadsConfig is shared by every
// server in a federation; the defaults reproduce the paper's simulation
// setup (§V): at most 8 children per server, 1000 histogram buckets per
// attribute, summaries refreshed every ts with a TTL of a few refresh
// periods.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hierarchy/join_policy.h"
#include "sim/time.h"
#include "store/service_model.h"
#include "summary/attribute_summary.h"

namespace roads::core {

struct RoadsConfig {
  /// Maximum children a server accepts (node degree, Fig. 10 sweep).
  std::size_t max_children = 8;

  /// Join steering policy (balanced vs random, ablation).
  hierarchy::JoinPolicyKind join_policy =
      hierarchy::JoinPolicyKind::kBalanced;

  /// Summary geometry (histogram buckets, categorical mode).
  summary::SummaryConfig summary;

  /// Summary refresh period ts: every server recomputes and pushes its
  /// summaries this often (§IV uses ts >> tr since summaries change an
  /// order of magnitude slower than records).
  sim::Time summary_refresh_period = sim::seconds(100);

  /// Soft-state TTL for summaries; must exceed the refresh period or
  /// healthy replicas would expire between refreshes.
  sim::Time summary_ttl = sim::seconds(350);

  /// Digest-suppressed propagation: a summary push whose content digest
  /// equals the last one sent on that (destination, origin, kind)
  /// stream is skipped — except every K-th refresh round, the keepalive
  /// wave, which pushes everything so downstream soft-state TTLs keep
  /// being renewed. Must satisfy K * summary_refresh_period <
  /// summary_ttl or healthy replicas expire between keepalives. 0
  /// disables suppression (every round pushes, the paper's literal
  /// protocol and the ablation baseline).
  std::size_t summary_keepalive_rounds = 3;

  /// Replication overlay (§III-C). When disabled, servers keep only
  /// child summaries, queries must start at the root, and the root is
  /// again a bottleneck — the ablation baseline.
  bool overlay_enabled = true;

  /// Hierarchy maintenance (heartbeats, failure detection, TTL sweeps).
  /// Off by default so metric-focused experiments do not pay for
  /// maintenance events; churn tests and examples turn it on.
  bool maintenance_enabled = false;
  sim::Time heartbeat_period = sim::seconds(10);
  /// A peer is declared failed after this many missed heartbeats.
  int heartbeat_miss_limit = 3;

  /// Per-query server processing delay before replying to the client
  /// (summary evaluation, bookkeeping).
  sim::Time query_processing_delay = sim::ms(1);

  /// When true, servers with matching records also retrieve and return
  /// them (Fig. 11 total-response-time mode); when false queries only
  /// measure forwarding (the §V-A simulations).
  bool collect_results = false;
  store::ServiceModelParams service_model;

  // --- Admission control (open-loop serving) -------------------------------
  /// Per-server concurrent query evaluations. 0 = unlimited: every
  /// arriving query gets its own processing timer, the closed-loop
  /// behaviour every existing experiment measures (and the replay
  /// digests pin). >0 turns the server into a k-server queueing
  /// station: at most this many queries evaluate at once, the rest
  /// wait in the inbound queue.
  std::size_t query_concurrency_limit = 0;

  /// Inbound queue high-watermark (only meaningful with a concurrency
  /// limit). A query arriving with the queue at this depth is shed:
  /// the server replies immediately with an overload message instead
  /// of queueing it, which keeps waiting time — and hence p99 — bounded
  /// at roughly (limit + queue) * service_time.
  std::size_t query_queue_limit = 64;

  // --- Digest-keyed result caching -----------------------------------------
  /// Per-server query-result cache keyed on (query digest, folded
  /// summary-state digest). Off by default: caching changes message
  /// timing, so the existing goldens only hold with it disabled.
  bool query_cache_enabled = false;

  /// Result-cache bounds: entries and total cached bytes (records +
  /// target lists), LRU-evicted.
  std::size_t query_cache_max_entries = 4096;
  std::uint64_t query_cache_max_bytes = 1 << 22;  // 4 MiB

  /// Service time of a cache hit (lookup + reply assembly). A hit
  /// occupies an evaluation slot for this long instead of
  /// query_processing_delay — the source of the cache's throughput win.
  sim::Time query_cache_hit_delay = 50;  // µs

  /// Negative cache of summary-prune misses: a forwarded query that
  /// proved a false positive (no local match, no live subtree/replica
  /// target) is remembered and answered empty for the TTL without
  /// occupying an evaluation slot — the absorber for the fp storms the
  /// staleness-attack scenarios generate. Entry-bounded, FIFO-expired.
  std::size_t negative_cache_max_entries = 1024;
  sim::Time negative_cache_ttl = sim::seconds(5);
};

}  // namespace roads::core

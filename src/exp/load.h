// Open-loop load drivers: offered-QPS sweeps for the sustainable-
// throughput-vs-tail-latency curves (bench_load).
//
// The experiment drivers in exp/experiment.h are closed-loop — each
// query runs to completion before the next is issued — which measures
// per-query cost but cannot expose saturation: offered load falls as
// latency rises. These drivers fix an arrival schedule in advance
// (workload/arrival.h) and keep every in-flight query live while the
// engine steps, so queueing, admission control and the digest-keyed
// result cache are exercised the way a real serving system sees them.
//
// run_roads_load serves the schedule through a full federation with
// the open-loop drive (exp/deployment.h), so results are bit-identical
// across thread counts; the fingerprint field pins that.
// run_central_load replays the same schedule through an analytic serial
// queue at the central repository: one server, one queue, the paper's
// service-time model — the baseline whose tail collapses first.
#pragma once

#include <cstdint>
#include <cstddef>

#include "exp/deployment.h"
#include "workload/arrival.h"

namespace roads::exp {

/// One offered-load point. The data, query and serving shapes are
/// constants in load.cpp: no sweep varies them.
struct LoadConfig {
  // Federation / data (CI-sized defaults).
  std::size_t nodes = 64;
  std::size_t records_per_node = 100;
  std::uint64_t seed = 1;
  /// Engine shards for the ROADS side (FederationParams::threads).
  std::size_t threads = 1;

  // Offered load.
  workload::ArrivalSpec arrival;
  /// Arrivals in the measurement (the open-loop batch size).
  std::size_t queries = 1000;
  /// Distinct queries in the population; arrivals sample ranks from a
  /// Zipf law over it, so a small population is cache-friendly.
  std::size_t population = 32;

  // Serving knobs (RoadsConfig pass-throughs; central ignores them).
  bool cache_enabled = true;
  std::size_t queue_limit = 16;
};

/// What one offered-load point measured.
struct LoadMetrics {
  /// Realized offered rate (arrivals / schedule span).
  double offered_qps = 0.0;
  std::size_t issued = 0;
  /// Clients whose protocol finished (includes rejected ones — the
  /// overload reply IS an answer; see rejected).
  std::size_t completed = 0;
  /// Queries the start server shed: answered, but served no data.
  std::size_t rejected = 0;
  /// Total overload replies across all servers (branch sheds included).
  std::size_t shed_events = 0;
  /// Served (completed minus rejected) per second of measurement span —
  /// the sustainable-throughput metric.
  double goodput_qps = 0.0;
  /// Forwarding-latency p99 over SERVED queries (ms).
  double p99_ms = 0.0;
  /// Result-cache meters (ROADS side; 0 when the cache is off).
  std::uint64_t cache_hits = 0;
  std::uint64_t neg_hits = 0;
  std::uint64_t evicted = 0;
  double hit_rate = 0.0;
  /// FNV fold of every client's outcome (completion, sheds, latency,
  /// match count) in issue order — equal fingerprints mean the whole
  /// serving history replayed bit-identically (thread-count gate).
  std::uint64_t fingerprint = 0;
};

/// The deployment both systems serve: run_roads_load builds its
/// federation, and run_central_load loads the repository from its
/// generator.
Deployment deployment_for(const LoadConfig& config);

/// Offered-load point through a live federation (open loop).
LoadMetrics run_roads_load(const LoadConfig& config);

/// The same schedule through the central baseline's serial queue,
/// computed analytically (arrival order + service model; no engine).
LoadMetrics run_central_load(const LoadConfig& config);

}  // namespace roads::exp

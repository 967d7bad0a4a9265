#include "sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace roads::sim {

namespace {
constexpr Time kTimeMax = std::numeric_limits<Time>::max();

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

thread_local ShardedSimulator::ExecContext ShardedSimulator::tls_{};

ShardedSimulator::ShardedSimulator(Simulator& global, std::size_t shards)
    : global_(global) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  logs_.resize(shards);
  resolved_.resize(shards);
  cursors_.resize(shards, 0);
  busy_us_.resize(shards, 0);
  global_.set_shared_seq(&next_seq_);
  for (auto& s : shards_) s->set_shared_seq(&next_seq_);
}

ShardedSimulator::~ShardedSimulator() {
  global_.set_shared_seq(nullptr);
}

void ShardedSimulator::set_lookahead(Time lookahead) {
  lookahead_ = std::max<Time>(lookahead, 1);
}

void ShardedSimulator::set_tree_branching(std::size_t k) {
  branching_ = std::max<std::size_t>(k, 2);
}

void ShardedSimulator::pin_node(NodeId node, std::size_t shard) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("ShardedSimulator: pin to unknown shard");
  }
  if (node >= pins_.size()) pins_.resize(node + 1, kUnpinned);
  pins_[node] = static_cast<std::uint32_t>(shard);
}

std::size_t ShardedSimulator::shard_of(NodeId node) const {
  if (node < pins_.size() && pins_[node] != kUnpinned) return pins_[node];
  const std::size_t n_shards = shards_.size();
  if (n_shards == 1) return 0;
  const std::uint64_t k = branching_;
  std::uint64_t n = node;
  // Subtree partition over the implicit balanced k-ary tree the join
  // policy approximates (parent(i) = (i-1)/k): whole depth-1 branches
  // map to one shard each when shards <= k, so parent-child traffic —
  // the protocols' dominant flow — stays shard-local; beyond k shards
  // the depth-2 subtrees spread instead. The map is a locality
  // heuristic only: ANY node->shard function is correct.
  if (n_shards <= k) {
    while (n > k) n = (n - 1) / k;
    return n == 0 ? 0 : static_cast<std::size_t>((n - 1) % n_shards);
  }
  const std::uint64_t d2_first = k + 1;
  const std::uint64_t d2_last = k + k * k;
  if (n > d2_last) {
    while (n > d2_last) n = (n - 1) / k;
    return static_cast<std::size_t>((n - d2_first) % n_shards);
  }
  if (n >= d2_first) return static_cast<std::size_t>((n - d2_first) % n_shards);
  if (n >= 1) return static_cast<std::size_t>((n - 1) % n_shards);
  return 0;
}

Simulator& ShardedSimulator::current_engine() {
  if (tls_.owner == this && tls_.engine != nullptr) return *tls_.engine;
  return global_;
}

bool ShardedSimulator::in_window() const {
  return tls_.owner == this && tls_.log != nullptr;
}

ShardedSimulator::ExecContext ShardedSimulator::push_node_context(NodeId node) {
  const ExecContext prev = tls_;
  const std::size_t shard = shard_of(node);
  tls_ = ExecContext{this, shards_[shard].get(), shard, nullptr};
  return prev;
}

void ShardedSimulator::restore_context(const ExecContext& prev) {
  tls_ = prev;
}

void ShardedSimulator::schedule_on_node(NodeId node, Time when, EventFn fn) {
  const std::size_t target = shard_of(node);
  if (in_window()) {
    if (target == tls_.shard) {
      // Same shard: plain window-mode schedule (phase-1 or parked).
      tls_.engine->schedule_at(when, std::move(fn));
      return;
    }
    if (when < cur_window_end_) {
      // Would violate the lookahead contract — a cross-shard arrival
      // inside the very window that produced it cannot be ordered.
      throw std::logic_error(
          "ShardedSimulator: cross-shard delivery below lookahead");
    }
    auto& log = *tls_.log;
    ShardWindowLog::Record rec;
    rec.handler_time = tls_.engine->exec_when();
    rec.handler_seq = tls_.engine->exec_seq();
    rec.kind = ShardWindowLog::Kind::kCross;
    rec.when = when;
    rec.index = log.cross_fns.size();
    rec.target_shard = static_cast<std::uint32_t>(target);
    // Sender-side profiling tag, carried across the barrier so the
    // delivery is attributed like a same-shard one.
    rec.category = profiler_ != nullptr ? obs::prof_current_category() : 0;
    log.cross_fns.push_back(std::move(fn));
    log.records.push_back(rec);
    return;
  }
  // Outside windows every engine shares the seq counter, so a direct
  // insert on the owning shard is already in global order.
  shards_[target]->schedule_at(when, std::move(fn));
}

void ShardedSimulator::record_digest(
    const std::array<std::uint64_t, 6>& payload) {
  ShardWindowLog::Record rec;
  rec.handler_time = tls_.engine->exec_when();
  rec.handler_seq = tls_.engine->exec_seq();
  rec.kind = ShardWindowLog::Kind::kDigest;
  rec.payload = payload;
  tls_.log->records.push_back(rec);
}

bool ShardedSimulator::global_min_top(Time& when, std::uint64_t& seq,
                                      std::size_t& engine) {
  bool found = false;
  for (std::size_t i = 0; i < shards_.size() + 1; ++i) {
    Time w;
    std::uint64_t s;
    if (!engine_at(i)->top_key(w, s)) continue;
    if (!found || w < when || (w == when && s < seq)) {
      when = w;
      seq = s;
      engine = i;
      found = true;
    }
  }
  return found;
}

// One sequential-engine step, across engines: executes the event with
// the globally smallest (time, seq) key (true), or finds every heap
// drained (false). Clocks sync to the event time BEFORE it runs so any
// engine's now() read from inside the handler (or from coordinator code
// after it) matches the single-threaded clock.
bool ShardedSimulator::micro_pop() {
  Time when = 0;
  std::uint64_t seq = 0;
  std::size_t index = 0;
  if (!global_min_top(when, seq, index)) return false;
  Simulator* engine = engine_at(index);
  global_.advance_clock(when);
  for (auto& s : shards_) s->advance_clock(when);
  const ExecContext prev = tls_;
  tls_ = ExecContext{this, engine, index == 0 ? 0 : index - 1, nullptr};
  engine->step_top();
  tls_ = prev;
  return true;
}

void ShardedSimulator::run_shard_window(std::size_t shard, Time window_end) {
  const std::int64_t t0 = now_us();
  const ExecContext prev = tls_;
  tls_ = ExecContext{this, shards_[shard].get(), shard, &logs_[shard]};
  shards_[shard]->run_window(window_end, &logs_[shard]);
  tls_ = prev;
  busy_us_[shard] = now_us() - t0;
}

void ShardedSimulator::run_parallel_window(Time window_end) {
  active_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Time w;
    std::uint64_t s;
    if (shards_[i]->top_key(w, s) && w < window_end) active_.push_back(i);
  }
  cur_window_end_ = window_end;
  if (windows_counter_ != nullptr) windows_counter_->inc();
  // Utilization accounting baselines: each shard engine accumulates
  // its in-loop tick time into its ProfSink; the per-window busy is
  // the delta across this window, and wall - busy is barrier wait.
  std::uint64_t ticks0 = 0;
  if (profiler_ != nullptr) {
    for (const std::size_t i : active_) {
      work_ticks_snap_[i] = shards_[i]->profile_sink()->work_ticks;
    }
    ticks0 = obs::prof_ticks();
  }
  std::int64_t wall_us = 0;
  if (active_.size() == 1) {
    // One busy shard: run inline, skip the pool round-trip.
    run_shard_window(active_[0], window_end);
    wall_us = busy_us_[active_[0]];
  } else {
    ensure_pool();
    const std::int64_t t0 = now_us();
    pool_->parallel_for(active_.size(), [&](std::size_t k) {
      run_shard_window(active_[k], window_end);
    });
    wall_us = now_us() - t0;
    if (barrier_wait_counter_ != nullptr) {
      for (const std::size_t i : active_) {
        const std::int64_t wait = wall_us - busy_us_[i];
        if (wait > 0) {
          barrier_wait_counter_->inc(static_cast<std::uint64_t>(wait));
        }
      }
    }
  }
  if (profiler_ != nullptr || !shard_busy_counters_.empty()) {
    std::fill(shard_active_.begin(), shard_active_.end(), std::uint8_t{0});
    for (const std::size_t i : active_) shard_active_[i] = 1;
  }
  if (profiler_ != nullptr) {
    const std::uint64_t wall_ticks = obs::prof_ticks() - ticks0;
    profiler_->note_window();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shard_active_[i] != 0) {
        const std::uint64_t busy =
            shards_[i]->profile_sink()->work_ticks - work_ticks_snap_[i];
        profiler_->note_shard_window(
            i, busy, wall_ticks > busy ? wall_ticks - busy : 0);
      } else {
        profiler_->note_shard_idle(i, wall_ticks);
      }
    }
  }
  if (!shard_busy_counters_.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shard_active_[i] != 0) {
        if (busy_us_[i] > 0) {
          shard_busy_counters_[i]->inc(static_cast<std::uint64_t>(busy_us_[i]));
        }
        const std::int64_t wait = wall_us - busy_us_[i];
        if (wait > 0) {
          shard_wait_counters_[i]->inc(static_cast<std::uint64_t>(wait));
        }
      } else if (wall_us > 0) {
        shard_idle_counters_[i]->inc(static_cast<std::uint64_t>(wall_us));
      }
    }
  }
  merge_window();
}

void ShardedSimulator::merge_window() {
  for (const std::size_t i : active_) {
    std::size_t schedules = 0;
    for (const auto& r : logs_[i].records) {
      if (r.kind == ShardWindowLog::Kind::kSchedule) ++schedules;
    }
    resolved_[i].assign(schedules, 0);
    cursors_[i] = 0;
  }
  auto resolve = [this](std::size_t shard, std::uint64_t seq) {
    return (seq & Simulator::kPhase1Bit) != 0
               ? resolved_[shard][seq & ~Simulator::kPhase1Bit]
               : seq;
  };
  for (;;) {
    std::size_t best = kUnpinned;
    Time best_time = 0;
    std::uint64_t best_seq = 0;
    for (const std::size_t i : active_) {
      if (cursors_[i] >= logs_[i].records.size()) continue;
      const auto& r = logs_[i].records[cursors_[i]];
      // A creator record always precedes its creature in the same
      // shard's log, so a head record's handler key is resolvable.
      const std::uint64_t hseq = resolve(i, r.handler_seq);
      if (best == kUnpinned || r.handler_time < best_time ||
          (r.handler_time == best_time && hseq < best_seq)) {
        best = i;
        best_time = r.handler_time;
        best_seq = hseq;
      }
    }
    if (best == kUnpinned) break;
    auto& log = logs_[best];
    const auto& r = log.records[cursors_[best]++];
    switch (r.kind) {
      case ShardWindowLog::Kind::kSchedule: {
        const std::uint64_t vseq = next_seq_++;
        resolved_[best][r.index] = vseq;
        if (r.parked) shards_[best]->reinsert_parked(r.slot, r.when, vseq);
        break;
      }
      case ShardWindowLog::Kind::kCross: {
        const std::uint64_t vseq = next_seq_++;
        shards_[r.target_shard]->insert_with_seq(
            r.when, vseq, std::move(log.cross_fns[r.index]), r.category);
        if (cross_sends_counter_ != nullptr) cross_sends_counter_->inc();
        if (!shard_cross_counters_.empty()) {
          shard_cross_counters_[best]->inc();
        }
        break;
      }
      case ShardWindowLog::Kind::kDigest: {
        if (digest_sink_ != nullptr) {
          for (const std::uint64_t w : r.payload) digest_sink_->add(w);
        }
        break;
      }
    }
  }
  for (const std::size_t i : active_) logs_[i].clear();
}

void ShardedSimulator::ensure_pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(shards_.size());
  }
}

std::size_t ShardedSimulator::run_until(Time deadline) {
  const std::size_t before = stats().executed;
  for (;;) {
    Time t = 0;
    std::uint64_t s = 0;
    std::size_t index = 0;
    if (!global_min_top(t, s, index)) break;
    if (t > deadline) break;
    Time tg = kTimeMax;
    std::uint64_t sg;
    const bool has_global = global_.top_key(tg, sg);
    if (coin_mode_ || (has_global && tg <= t)) {
      // Per-message fault coins need send-time RNG draws in global
      // order, and a due global event (fault transition) mutates state
      // every shard reads — both degrade to exact micro-stepping.
      micro_pop();
      continue;
    }
    // The shard holding the minimum t is always active: the window end
    // lies above t, so every window executes at least one event.
    run_parallel_window(std::min(std::min(t + lookahead_, tg), deadline + 1));
  }
  global_.advance_clock(deadline);
  for (auto& sh : shards_) sh->advance_clock(deadline);
  return stats().executed - before;
}

std::size_t ShardedSimulator::run_steps(std::size_t limit) {
  std::size_t executed = 0;
  while (executed < limit && micro_pop()) ++executed;
  return executed;
}

std::size_t ShardedSimulator::pending_events() const {
  std::size_t total = global_.pending_events();
  for (const auto& s : shards_) total += s->pending_events();
  return total;
}

Simulator::Stats ShardedSimulator::stats() const {
  Simulator::Stats sum = global_.stats();
  for (const auto& s : shards_) {
    const auto& st = s->stats();
    sum.scheduled += st.scheduled;
    sum.executed += st.executed;
    sum.inline_events += st.inline_events;
    sum.spilled_events += st.spilled_events;
    sum.max_depth += st.max_depth;
  }
  return sum;
}

std::size_t ShardedSimulator::take_window_max_depth() {
  std::size_t total = global_.take_window_max_depth();
  for (auto& s : shards_) total += s->take_window_max_depth();
  return total;
}

void ShardedSimulator::bind_metrics(obs::MetricsRegistry& registry) {
  windows_counter_ = &registry.counter("sim.shard.windows");
  barrier_wait_counter_ = &registry.counter("sim.shard.barrier_wait_us");
  cross_sends_counter_ = &registry.counter("sim.shard.cross_sends");
  registry.set_help("sim.shard.windows", "Parallel windows executed");
  registry.set_help("sim.shard.barrier_wait_us",
                    "Wall time shards spent waiting at window barriers");
  registry.set_help("sim.shard.cross_sends",
                    "Cross-shard deliveries exchanged at barriers");
  shard_cross_counters_.clear();
  shard_busy_counters_.clear();
  shard_idle_counters_.clear();
  shard_wait_counters_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "sim.shard." + std::to_string(i);
    shard_cross_counters_.push_back(&registry.counter(prefix + ".cross_sends"));
    shard_busy_counters_.push_back(&registry.counter(prefix + ".busy_us"));
    shard_idle_counters_.push_back(&registry.counter(prefix + ".idle_us"));
    shard_wait_counters_.push_back(
        &registry.counter(prefix + ".barrier_wait_us"));
    registry.set_help(prefix + ".busy_us",
                      "Wall time this shard spent executing window events");
    registry.set_help(prefix + ".idle_us",
                      "Wall time of windows this shard had no events in");
    registry.set_help(prefix + ".barrier_wait_us",
                      "Wall time this shard waited on slower window peers");
  }
  if (shard_active_.size() != shards_.size()) {
    shard_active_.assign(shards_.size(), 0);
  }
}

void ShardedSimulator::attach_profiler(obs::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler == nullptr) {
    global_.set_profile_sink(nullptr);
    for (auto& s : shards_) s->set_profile_sink(nullptr);
    return;
  }
  // Engine i writes sink i exclusively: the global engine runs on the
  // coordinator thread, each shard engine on at most one pool thread
  // per window — no sink is ever shared across concurrent writers.
  global_.set_profile_sink(&profiler->sink(0));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->set_profile_sink(&profiler->sink(i + 1));
  }
  work_ticks_snap_.assign(shards_.size(), 0);
  if (shard_active_.size() != shards_.size()) {
    shard_active_.assign(shards_.size(), 0);
  }
}

}  // namespace roads::sim

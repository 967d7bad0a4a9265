#include "sim/simulator.h"

#include <stdexcept>
#include <utility>

#include "obs/profile.h"
#include "sim/window_log.h"

namespace roads::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot_index = free_head_;
    free_head_ = slot_at(slot_index).next_free;
    return slot_index;
  }
  if (slot_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return static_cast<std::uint32_t>(slot_count_++);
}

void Simulator::note_depth() {
  if (live_ > stats_.max_depth) stats_.max_depth = live_;
  if (live_ > window_max_depth_) window_max_depth_ = live_;
}

std::size_t Simulator::take_window_max_depth() {
  const std::size_t high = window_max_depth_;
  window_max_depth_ = live_;
  return high;
}

// Hole-based sifts: the displaced element is kept in registers while
// the hole walks the tree, so each level costs one key+slot copy
// instead of a three-way swap.
void Simulator::heap_push(HeapKey key, std::uint32_t slot_index) {
  std::size_t i = heap_keys_.size();
  heap_keys_.push_back(key);
  heap_slots_.push_back(slot_index);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(key, heap_keys_[parent])) break;
    heap_keys_[i] = heap_keys_[parent];
    heap_slots_[i] = heap_slots_[parent];
    i = parent;
  }
  heap_keys_[i] = key;
  heap_slots_[i] = slot_index;
}

void Simulator::heap_pop_top() {
  const HeapKey key = heap_keys_.back();
  const std::uint32_t slot_index = heap_slots_.back();
  heap_keys_.pop_back();
  heap_slots_.pop_back();
  const std::size_t n = heap_keys_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child =
        first_child + kArity < n ? first_child + kArity : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_keys_[c], heap_keys_[best])) best = c;
    }
    if (!before(heap_keys_[best], key)) break;
    heap_keys_[i] = heap_keys_[best];
    heap_slots_[i] = heap_slots_[best];
    i = best;
  }
  heap_keys_[i] = key;
  heap_slots_[i] = slot_index;
}

void Simulator::schedule_at(Time when, EventFn fn) {
  if (when < now_) {
    throw std::invalid_argument("Simulator: scheduling into the past");
  }
  const bool stored_inline = fn.is_inline();
  const std::uint32_t slot_index = acquire_slot();
  Slot& slot = slot_at(slot_index);
  slot.fn = std::move(fn);
  // Category resolution (profiled runs only): the explicit scope tag
  // if one is active, else inherit from the executing handler.
  slot.category = prof_ != nullptr ? obs::prof_current_category() : 0;
  // Trace context resolution (tracing runs only), same rule: an
  // explicit scope if one is active, else the executing handler's.
  slot.trace = tracing_ ? obs::current_trace_context() : obs::TraceContext{};
  if (window_log_ != nullptr) {
    // Parallel window: the global seq this event would have drawn
    // depends on the cross-shard interleaving, so it is assigned at the
    // barrier merge from the log record below. Until then the event is
    // either heaped under a phase-1 key (target inside this window —
    // only zero-/sub-lookahead local delays reach here) or parked with
    // its slot held.
    const std::uint64_t local = window_local_seq_++;
    const bool parked = when >= window_end_;
    if (!parked) heap_push(HeapKey{when, kPhase1Bit | local}, slot_index);
    ShardWindowLog::Record rec;
    rec.handler_time = exec_when_;
    rec.handler_seq = exec_seq_;
    rec.kind = ShardWindowLog::Kind::kSchedule;
    rec.when = when;
    rec.slot = slot_index;
    rec.index = local;
    rec.parked = parked;
    window_log_->records.push_back(rec);
  } else {
    const std::uint64_t seq =
        shared_seq_ != nullptr ? (*shared_seq_)++ : next_seq_++;
    heap_push(HeapKey{when, seq}, slot_index);
  }
  ++live_;
  ++stats_.scheduled;
  if (stored_inline) {
    ++stats_.inline_events;
  } else {
    ++stats_.spilled_events;
  }
  note_depth();
}

void Simulator::schedule_after(Time delay, EventFn fn) {
  if (delay < 0) {
    throw std::invalid_argument("Simulator: negative delay");
  }
  schedule_at(now_ + delay, std::move(fn));
}

// The slot stays OFF the free list until the closure returns: chunk
// addresses are stable, so the closure runs in place (no move) while
// reschedules grow the slab around it.
void Simulator::execute_top() {
  const HeapKey key = heap_keys_.front();
  const std::uint32_t slot_index = heap_slots_.front();
  heap_pop_top();
  Slot& slot = slot_at(slot_index);
  --live_;
  now_ = key.when;
  exec_when_ = key.when;
  exec_seq_ = key.seq;
  ++stats_.executed;
  if (prof_ != nullptr) {
    // Exact event count; ticks are stride-sampled (see ProfSink): the
    // clock is read on the first event after loop entry and every
    // kSampleStride-th event after that, and the elapsed block is
    // charged to the category observed when the block opened. The
    // drive loops close the final block (prof_close), so attribution
    // still covers ~all of the loop's work.
    prof_->count_event(slot.category);
    if (!prof_->pending) {
      prof_->pending_t0 = obs::prof_ticks();
      prof_->pending_cat = slot.category;
      prof_->pending = true;
    } else if ((++prof_->sample_ctr & (obs::ProfSink::kSampleStride - 1)) ==
               0) {
      const std::uint64_t t = obs::prof_ticks();
      prof_->add_ticks(prof_->pending_cat, t - prof_->pending_t0);
      prof_->pending_cat = slot.category;
      prof_->pending_t0 = t;
    }
    // Untagged schedules made by the closure inherit its category. The
    // drive loops clear the tag on exit; between events inside a loop
    // nothing schedules, so per-event clearing would be wasted stores.
    obs::detail::t_exec_category = slot.category;
  }
  if (tracing_) {
    // Sends, spans and schedules the handler makes inherit the context
    // the event was scheduled under.
    const obs::ScopedTraceContext trace_scope(slot.trace);
    slot.fn();
  } else {
    slot.fn();
  }
  slot.fn = nullptr;
  slot.next_free = free_head_;
  free_head_ = slot_index;
}

void Simulator::prof_close(std::uint64_t loop_t0) {
  const std::uint64_t t = obs::prof_ticks();
  if (prof_->pending) {
    prof_->add_ticks(prof_->pending_cat, t - prof_->pending_t0);
    prof_->pending = false;
  }
  prof_->work_ticks += t - loop_t0;
  obs::detail::t_exec_category = 0;
}

bool Simulator::step_top() {
  if (heap_keys_.empty()) return false;
  execute_top();
  if (prof_ != nullptr) {
    // Micro-stepping (the sharded coordinator popping one event at a
    // time): close the measurement per event so coordinator work
    // between steps is never charged to a handler. Inside run_window
    // the loop keeps the measurement pending instead.
    const std::uint64_t t = obs::prof_ticks();
    prof_->add_ticks(prof_->pending_cat, t - prof_->pending_t0);
    prof_->work_ticks += t - prof_->pending_t0;
    prof_->pending = false;
    obs::detail::t_exec_category = 0;
  }
  return true;
}

std::size_t Simulator::run_window(Time window_end, ShardWindowLog* log) {
  window_log_ = log;
  window_end_ = window_end;
  window_local_seq_ = 0;
  const std::uint64_t t0 = prof_ != nullptr ? obs::prof_ticks() : 0;
  std::size_t executed = 0;
  while (!heap_keys_.empty() && heap_keys_.front().when < window_end) {
    execute_top();
    ++executed;
  }
  if (prof_ != nullptr) prof_close(t0);
  window_log_ = nullptr;
  return executed;
}

void Simulator::insert_with_seq(Time when, std::uint64_t seq, EventFn fn,
                                std::uint8_t category) {
  const bool stored_inline = fn.is_inline();
  const std::uint32_t slot_index = acquire_slot();
  Slot& slot = slot_at(slot_index);
  slot.fn = std::move(fn);
  slot.category = category;
  heap_push(HeapKey{when, seq}, slot_index);
  ++live_;
  ++stats_.scheduled;
  if (stored_inline) {
    ++stats_.inline_events;
  } else {
    ++stats_.spilled_events;
  }
  note_depth();
}

void Simulator::reinsert_parked(std::uint32_t slot_index, Time when,
                                std::uint64_t seq) {
  heap_push(HeapKey{when, seq}, slot_index);
}

std::size_t Simulator::run() {
  const std::uint64_t t0 = prof_ != nullptr ? obs::prof_ticks() : 0;
  std::size_t executed = 0;
  while (!heap_keys_.empty()) {
    execute_top();
    ++executed;
  }
  if (prof_ != nullptr) prof_close(t0);
  return executed;
}

std::size_t Simulator::run_until(Time deadline) {
  const std::uint64_t t0 = prof_ != nullptr ? obs::prof_ticks() : 0;
  std::size_t executed = 0;
  while (!heap_keys_.empty() && heap_keys_.front().when <= deadline) {
    execute_top();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  if (prof_ != nullptr) prof_close(t0);
  return executed;
}

std::size_t Simulator::run_steps(std::size_t limit) {
  const std::uint64_t t0 = prof_ != nullptr ? obs::prof_ticks() : 0;
  std::size_t executed = 0;
  while (executed < limit && !heap_keys_.empty()) {
    execute_top();
    ++executed;
  }
  if (prof_ != nullptr) prof_close(t0);
  return executed;
}

}  // namespace roads::sim

// Per-shard action log for one conservative time window of the sharded
// engine (see sim/sharded_simulator.h).
//
// While a shard executes a window in parallel, everything that would
// have consumed a *global* resource in the sequential engine — an event
// sequence number (Simulator::schedule_at) or a fold into the network's
// FNV event digest — is appended here instead, tagged with the identity
// of the handler that performed it: the handler's execution time and
// its heap key. At the window barrier the coordinator merges the shard
// logs by (handler time, resolved handler seq) — which provably equals
// the order a single-threaded run would have executed those handlers in
// — and replays the records: sequence numbers are assigned from the
// shared counter, deferred ("parked") events enter their shard's heap,
// cross-shard deliveries enter the destination shard's heap, and digest
// payloads fold into the network digest. The result is bit-identical to
// the sequential engine's bookkeeping.
//
// A record's handler key comes in two phases (see Simulator::kPhase1Bit):
// phase-0 handlers were scheduled before the window opened and carry
// their final global sequence number; phase-1 handlers were scheduled
// *during* the window (only zero-/sub-lookahead local delays can do
// that) and carry a window-local serial. The merge resolves phase-1
// serials to global numbers as it passes the records that created them
// — the creator always precedes its creature in the same shard log.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/unique_function.h"

namespace roads::sim {

struct ShardWindowLog {
  enum class Kind : std::uint8_t {
    kSchedule,  // local schedule_at (in-window phase-1 or parked)
    kCross,     // cross-shard delivery closure (sits in cross_fns)
    kDigest,    // network digest fold payload
  };

  struct Record {
    Time handler_time = 0;
    std::uint64_t handler_seq = 0;  // phase-0 vseq or kPhase1Bit | local
    Kind kind = Kind::kSchedule;
    Time when = 0;                // kSchedule / kCross: target time
    std::uint32_t slot = 0;       // kSchedule(parked): slab slot
    std::uint64_t index = 0;      // kSchedule: local serial; kCross: fn index
    std::uint32_t target_shard = 0;  // kCross
    bool parked = false;             // kSchedule
    std::uint8_t category = 0;       // kCross: sender-side profiling tag
    std::array<std::uint64_t, 6> payload{};  // kDigest
  };

  std::vector<Record> records;
  /// Delivery closures for kCross records, indexed by Record::index.
  std::vector<util::UniqueFunction<void(), 48>> cross_fns;

  void clear() {
    records.clear();
    cross_fns.clear();
  }
};

}  // namespace roads::sim

// Content hashing for change detection. Summaries expose a 64-bit
// digest so the refresh protocol can tell "recomputed but identical"
// apart from "actually changed" and suppress redundant pushes. The
// hash is FNV-1a folded a word at a time (strings byte-wise): not
// cryptographic, just cheap and stable — a 2^-64 collision silently
// suppresses one push until the next keepalive round, which soft-state
// semantics already tolerate.
//
// Long counter arrays (histogram buckets) go through add_lanes: word i
// feeds lane i % kLanes, each lane an independent FNV-1a chain, and the
// lane values then fold into this hasher in lane order. One chain
// serializes a multiply per word; eight independent chains let the
// multiplies overlap. Each counter stays its own 64-bit word: a
// multiply only carries low bits upward, so with two counters packed
// in one word a change in the high half would reach only the top 32
// bits of the digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace roads::util {

class Fnv1a {
 public:
  void add(std::uint64_t v) { hash_ = step(hash_, v); }

  void add(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }

  void add(const std::string& s) {
    for (const unsigned char c : s) add(static_cast<std::uint64_t>(c));
    add(static_cast<std::uint64_t>(s.size()));
  }

  /// Folds every word of `words` (a vector of unsigned integers)
  /// through kLanes independent FNV-1a lanes, each word widened to 64
  /// bits, then the lane values in lane order. Any one changed word
  /// changes its lane's value, and so the digest. The caller folds the
  /// length itself when it is not otherwise fixed.
  template <typename Words>
  void add_lanes(const Words& words) {
    const std::size_t n = words.size();
    std::uint64_t lanes[kLanes];
    for (auto& lane : lanes) lane = kOffset;
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        lanes[j] = step(lanes[j], static_cast<std::uint64_t>(words[i + j]));
      }
    }
    for (std::size_t j = 0; i < n; ++i, ++j) {
      lanes[j] = step(lanes[j], static_cast<std::uint64_t>(words[i]));
    }
    for (const auto lane : lanes) add(lane);
  }

  std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::size_t kLanes = 8;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;

  static std::uint64_t step(std::uint64_t hash, std::uint64_t v) {
    return (hash ^ v) * kPrime;
  }

  std::uint64_t hash_ = kOffset;
};

}  // namespace roads::util

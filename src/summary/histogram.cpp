#include "summary/histogram.h"

#include <bit>
#include <limits>
#include <stdexcept>

namespace roads::summary {

namespace {

constexpr std::uint64_t kFullWord = ~std::uint64_t{0};

/// Index of the lowest set bit of a non-zero word, unsigned so that
/// indexing with it needs no sign extension.
unsigned bit_index(std::uint64_t word) {
  return static_cast<unsigned>(std::countr_zero(word));
}

/// Bits [0, n) of a 64-bit word, for n <= 64.
std::uint64_t low_bits(std::size_t n) {
  return n >= 64 ? kFullWord : (std::uint64_t{1} << n) - 1;
}

}  // namespace

/// The calling thread's dense counters, one per bucket, and bit words,
/// that a build or merge counts into before packing once. The counters
/// are all zero between uses: pack zeroes what it reads, and a use that
/// throws before its pack zeroes the lot. Per thread, because shard
/// threads build summaries at the same time.
class Histogram::Scratch {
 public:
  /// Starts from `base`'s counters and bits.
  explicit Scratch(const Histogram& base) : words_(base.words()) {
    auto& storage = thread_storage();
    if (storage.dense.size() < 64 * words_) storage.dense.resize(64 * words_);
    if (storage.bits.size() < words_) storage.bits.resize(words_);
    dense_ = storage.dense.data();
    bits_ = storage.bits.data();
    std::fill_n(bits_, words_, 0);
    if (base.total_ != 0) add(base);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  ~Scratch() {
    if (!packed_) std::fill_n(dense_, 64 * words_, 0u);
  }

  void count(std::size_t bucket) {
    ++dense_[bucket];
    bits_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  }

  /// Adds `h`'s counters, a histogram of the same geometry.
  void add(const Histogram& h) {
    const std::uint32_t* in = h.counters();
    std::uint32_t* dense = dense_;
    for (std::size_t w = 0; w < words_; ++w, dense += 64) {
      std::uint64_t word = h.bit_word(w);
      bits_[w] |= word;
      if (word == kFullWord) {  // 64 contiguous counters: a vector add
        for (std::size_t j = 0; j < 64; ++j) dense[j] += in[j];
        in += 64;
        continue;
      }
      for (; word != 0; word &= word - 1) {
        dense[bit_index(word)] += *in++;
      }
    }
  }

  /// The bits as halves, then the counters at the set bits in bucket
  /// order, zeroing them here.
  std::vector<std::uint32_t> pack() {
    std::size_t nonzero = 0;
    for (std::size_t w = 0; w < words_; ++w) nonzero += std::popcount(bits_[w]);
    std::vector<std::uint32_t> data(2 * words_ + nonzero);
    std::uint32_t* out = data.data() + 2 * words_;
    std::uint32_t* dense = dense_;
    for (std::size_t w = 0; w < words_; ++w, dense += 64) {
      std::uint64_t word = bits_[w];
      data[2 * w] = static_cast<std::uint32_t>(word);
      data[2 * w + 1] = static_cast<std::uint32_t>(word >> 32);
      if (word == kFullWord) {
        out = std::copy_n(dense, 64, out);
        std::fill_n(dense, 64, 0u);
        continue;
      }
      for (; word != 0; word &= word - 1) {
        std::uint32_t& count = dense[bit_index(word)];
        *out++ = count;
        count = 0;
      }
    }
    packed_ = true;
    return data;
  }

 private:
  struct Storage {
    std::vector<std::uint32_t> dense;
    std::vector<std::uint64_t> bits;
  };
  static Storage& thread_storage() {
    thread_local Storage storage;
    return storage;
  }

  std::size_t words_;
  std::uint32_t* dense_ = nullptr;
  std::uint64_t* bits_ = nullptr;
  bool packed_ = false;
};

Histogram::Histogram(std::size_t buckets, double domain_min, double domain_max)
    : domain_min_(domain_min), domain_max_(domain_max) {
  if (buckets == 0 || buckets > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Histogram: bucket count must be in [1, 2^32)");
  }
  if (!(domain_min < domain_max)) {
    throw std::invalid_argument("Histogram: empty domain");
  }
  buckets_ = static_cast<std::uint32_t>(buckets);
  bucket_width_ = (domain_max - domain_min) / static_cast<double>(buckets);
  while (((buckets - 1) >> block_shift_) >= 64) ++block_shift_;
}

std::uint64_t Histogram::bucket(std::size_t index) const {
  if (index >= buckets_) throw std::out_of_range("Histogram: bucket index");
  if (total_ == 0 || ((data_[index / 32] >> (index % 32)) & 1) == 0) return 0;
  return counters()[set_bits(0, index)];
}

void Histogram::add(double value) {
  const std::size_t index = bucket_index(value);
  if (data_.empty()) data_.assign(2 * words(), 0);
  const std::size_t slot = 2 * words() + set_bits(0, index);
  const std::uint32_t bit = std::uint32_t{1} << (index % 32);
  if ((data_[index / 32] & bit) != 0) {
    ++data_[slot];
  } else {
    data_[index / 32] |= bit;
    data_.insert(data_.begin() + static_cast<std::ptrdiff_t>(slot), 1);
    occupied_ |= std::uint64_t{1} << (index >> block_shift_);
  }
  ++total_;
}

void Histogram::add_all(std::span<const double> values) {
  if (values.empty()) return;
  if (buckets_ == 0) throw std::logic_error("Histogram: uninitialized");
  Scratch scratch(*this);
  auto occupied = occupied_;
  const double lo = domain_min_;
  const double hi = domain_max_;
  const double width = bucket_width_;
  const std::size_t last = buckets_ - 1;
  const unsigned shift = block_shift_;
  for (const double v : values) {
    const std::size_t index = index_in(v, lo, hi, width, last);
    scratch.count(index);
    occupied |= std::uint64_t{1} << (index >> shift);
  }
  data_ = scratch.pack();
  occupied_ = occupied;
  total_ += values.size();
}

void Histogram::clear() {
  data_ = std::vector<std::uint32_t>();
  total_ = 0;
  occupied_ = 0;
}

void Histogram::merge(const Histogram& other) {
  const Histogram* one = &other;
  merge(std::span(&one, 1));
}

void Histogram::merge(std::span<const Histogram* const> others) {
  const Histogram* shape = buckets_ != 0 ? this : nullptr;
  bool adds = false;
  for (const Histogram* other : others) {
    if (other->buckets_ == 0) continue;
    if (shape == nullptr) shape = other;
    if (other->buckets_ != shape->buckets_ ||
        other->domain_min_ != shape->domain_min_ ||
        other->domain_max_ != shape->domain_max_) {
      throw std::invalid_argument("Histogram: merging incompatible histograms");
    }
    adds = adds || other->total_ != 0;
  }
  if (shape == nullptr) return;
  if (buckets_ == 0) {
    domain_min_ = shape->domain_min_;
    domain_max_ = shape->domain_max_;
    bucket_width_ = shape->bucket_width_;
    buckets_ = shape->buckets_;
    block_shift_ = shape->block_shift_;
  }
  if (!adds) return;
  Scratch scratch(*this);
  auto occupied = occupied_;
  auto total = total_;
  for (const Histogram* other : others) {
    if (other->total_ == 0) continue;
    scratch.add(*other);
    occupied |= other->occupied_;
    total += other->total_;
  }
  data_ = scratch.pack();
  occupied_ = occupied;
  total_ = total;
}

std::size_t Histogram::set_bits(std::size_t begin, std::size_t end) const {
  if (begin >= end) return 0;
  std::size_t w = begin / 64;
  const std::size_t last = (end - 1) / 64;
  std::uint64_t word = bit_word(w) & ~low_bits(begin % 64);
  std::size_t count = 0;
  for (; w < last; word = bit_word(++w)) count += std::popcount(word);
  return count + std::popcount(word & low_bits((end - 1) % 64 + 1));
}

bool Histogram::any_in_block(std::size_t begin, std::size_t end) const {
  return begin < end && ((occupied_ >> (begin >> block_shift_)) & 1) != 0 &&
         set_bits(begin, end) != 0;
}

bool Histogram::matches_range(double lo, double hi) const {
  if (buckets_ == 0 || total_ == 0 || !(lo <= hi)) return false;
  if (hi < domain_min_ || lo > domain_max_) return false;
  const std::size_t first = bucket_index(std::max(lo, domain_min_));
  const std::size_t end = bucket_index(std::min(hi, domain_max_)) + 1;
  // Blocks [whole_begin, whole_end) lie inside [first, end) and answer
  // from the word; only the partial blocks around them read bucket bits.
  const std::size_t block = std::size_t{1} << block_shift_;
  const std::size_t whole_begin = (first + block - 1) >> block_shift_;
  const std::size_t whole_end = end >> block_shift_;
  if (whole_begin < whole_end &&
      (occupied_ & low_bits(whole_end) & ~low_bits(whole_begin)) != 0) {
    return true;
  }
  const std::size_t head_end = std::min(end, whole_begin << block_shift_);
  return any_in_block(first, head_end) ||
         any_in_block(std::max(head_end, whole_end << block_shift_), end);
}

std::uint64_t Histogram::count_in_range(double lo, double hi) const {
  if (buckets_ == 0 || total_ == 0 || !(lo <= hi)) return 0;
  if (hi < domain_min_ || lo > domain_max_) return 0;
  const std::size_t first = bucket_index(std::max(lo, domain_min_));
  const std::size_t end = bucket_index(std::min(hi, domain_max_)) + 1;
  // The range's non-zero counters sit together from rank(first) on.
  const std::uint32_t* begin = counters() + set_bits(0, first);
  const std::uint32_t* stop = begin + set_bits(first, end);
  std::uint64_t count = 0;
  for (; begin != stop; ++begin) count += *begin;
  return count;
}

std::uint64_t Histogram::wire_size() const {
  return 16 + 4 * std::uint64_t{buckets_};
}

void Histogram::hash_into(util::Fnv1a& h) const {
  h.add(domain_min_);
  h.add(domain_max_);
  h.add(std::uint64_t{buckets_});
  // 32-bit values only: FNV-1a carries a flip of a 64-bit word's top bit
  // through its multiply unchanged ((h ^ 2^63) * P == h * P ^ 2^63 for
  // odd P), so two bit words of one lane that traded their top bits
  // would digest equal. A 32-bit half widened to 64 bits has no such bit.
  h.add_lanes(data_);
}

}  // namespace roads::summary

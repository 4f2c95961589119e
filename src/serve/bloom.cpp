#include "serve/bloom.h"

#include <algorithm>
#include <cmath>

namespace folvec::serve {

namespace {

/// splitmix64 finalizer: full-avalanche mix, the same construction the
/// fault plan and PRNG use. Double hashing h1 + i*h2 derives every probe
/// position from two independent mixes.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BloomFilter::BloomFilter(std::size_t expected_keys, std::size_t bits_per_key)
    : capacity_keys_(0),
      bits_per_key_(std::max<std::size_t>(1, bits_per_key)),
      bit_count_(0),
      hashes_(0) {
  reset(expected_keys);
}

void BloomFilter::reset(std::size_t expected_keys) {
  capacity_keys_ = std::max<std::size_t>(1, expected_keys);
  bit_count_ = std::max<std::size_t>(64, capacity_keys_ * bits_per_key_);
  // k = bits_per_key * ln 2, the FP-optimal count for a filter at capacity.
  hashes_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(bits_per_key_) * 0.693),
      1, 8);
  words_.assign((bit_count_ + 63) / 64, 0);
  set_bits_ = 0;
}

void BloomFilter::insert(vm::Word key) {
  const std::uint64_t h1 = mix64(static_cast<std::uint64_t>(key));
  const std::uint64_t h2 = mix64(h1) | 1;  // odd: full-period stepping
  std::uint64_t h = h1;
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::size_t bit = static_cast<std::size_t>(h % bit_count_);
    std::uint64_t& word = words_[bit >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
    set_bits_ += (word & mask) == 0 ? 1 : 0;
    word |= mask;
    h += h2;
  }
}

void BloomFilter::insert_all(std::span<const vm::Word> keys) {
  for (const vm::Word k : keys) insert(k);
}

bool BloomFilter::may_contain(vm::Word key) const {
  const std::uint64_t h1 = mix64(static_cast<std::uint64_t>(key));
  const std::uint64_t h2 = mix64(h1) | 1;
  std::uint64_t h = h1;
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::size_t bit = static_cast<std::size_t>(h % bit_count_);
    if ((words_[bit >> 6] & (std::uint64_t{1} << (bit & 63))) == 0) {
      return false;
    }
    h += h2;
  }
  return true;
}

double BloomFilter::design_fill() const {
  return 1.0 - std::exp(-static_cast<double>(hashes_ * capacity_keys_) /
                        static_cast<double>(bit_count_));
}

}  // namespace folvec::serve

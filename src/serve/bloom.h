// Per-shard Bloom filter: the cross-shard negative-lookup front-end.
//
// A ShardedMap lookup first asks the target shard's filter; a
// definitely-absent answer short-circuits to "missing" without issuing a
// single vector op, so negative traffic — the dominant kind under skewed
// key distributions — never pays the probe-chain cost. The design follows
// the flat single-level case of Bloofi (arXiv:1501.01941): one filter per
// shard, consulted by the router before the shard's lane group is touched.
//
// Contract: FALSE POSITIVES ONLY. may_contain() must return true for every
// key currently live in the backing map. The ShardedMap maintains that by
// inserting into the filter only after a successful upsert (inserts are
// idempotent, so a retried batch cannot corrupt it — see docs/serving.md).
// Erases never clear bits (bits are shared between keys): an erased key's
// bits stay behind as false positives. Staleness is bounded by fill, not by
// erase count: once the set bits pass design_fill(), the fill a filter
// holding exactly capacity_keys() keys would have, the FP rate is past the
// design rate and the ShardedMap rebuilds the filter from the map's live
// keys.
//
// The filter is host-side scalar state, like the hash map's duplicate
// bookkeeping: its job is precisely to AVOID vector work, so it does not
// issue VM ops or carry chime costs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vm/machine.h"

namespace folvec::serve {

class BloomFilter {
 public:
  /// Sizes for `expected_keys` at `bits_per_key` (>= 1 of each; ~10 bits
  /// per key gives ~1% false positives at capacity). The hash count is
  /// bits_per_key * ln 2, clamped to [1, 8].
  explicit BloomFilter(std::size_t expected_keys = 64,
                       std::size_t bits_per_key = 10);

  void insert(vm::Word key);
  void insert_all(std::span<const vm::Word> keys);

  /// False means definitely absent; true means "ask the map".
  bool may_contain(vm::Word key) const;

  /// Drops every bit and re-sizes for `expected_keys`; the caller re-seeds
  /// from the live key set (the fill-rebuild path).
  void reset(std::size_t expected_keys);

  std::size_t bit_count() const { return bit_count_; }
  std::size_t hash_count() const { return hashes_; }
  std::size_t capacity_keys() const { return capacity_keys_; }
  /// Fraction of set bits — the observable proxy for the FP rate.
  double fill_ratio() const {
    return static_cast<double>(set_bits_) / static_cast<double>(bit_count_);
  }
  /// Expected fill_ratio() of this filter holding exactly capacity_keys()
  /// distinct keys, 1 - e^(-k*n/m): a fuller filter is past its design FP
  /// rate.
  double design_fill() const;

 private:
  std::size_t capacity_keys_;
  std::size_t bits_per_key_;
  std::size_t bit_count_;
  std::size_t hashes_;
  std::size_t set_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace folvec::serve

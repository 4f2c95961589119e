// ShardedMap: N VectorHashMap shards, one backend lane-group each.
//
// The scaling unit of the serving layer. Keys route to shards by a
// multiplicative spreading hash computed with vector ops on a dedicated
// router machine; each shard owns its own VectorMachine built from the
// shared MachineConfig — so a kParallel config gives every shard its own
// worker pool (its lane group), and a kParallelSimd config runs every
// shard's probe chains through the SIMD kernel tables. Batches partition
// stably by shard and run through the existing FOL decomposition via
// VectorHashMap::{upsert,lookup,erase}_batch, which preserves the
// sequential "last lane wins" contract: all occurrences of a key land in
// the same shard, in batch order.
//
// Each shard carries a Bloom filter (bloom.h) consulted before any vector
// op is issued: definitely-absent lookups and erases short-circuit on the
// scalar unit. The filter is maintained insert-after-success and never
// loses a bit on erase; an upsert rebuilds it from live_keys() once it
// fills past its design fill. So it can only over-approximate the live
// set (false positives, never false negatives) — the differential tests
// pin ShardedMap bit-identical to a single reference VectorHashMap at
// every backend / worker-count / shard-count combination.
//
// Not thread-safe: like VectorMachine itself, a ShardedMap belongs to one
// issuing thread (the BatchServer's dispatch loop); parallelism comes from
// the shards' backend pools, not from concurrent callers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hashing/hash_map.h"
#include "serve/bloom.h"
#include "vm/machine.h"

namespace folvec::serve {

struct ShardedMapConfig {
  /// Number of shards (>= 1). Each gets its own VectorMachine + hash map.
  std::size_t shards = 4;
  /// Every shard machine (and the router) is built from this config.
  vm::MachineConfig machine;
  /// Initial per-shard hash map capacity.
  std::size_t initial_capacity = 64;
  /// Bloom front-end on/off and its sizing.
  bool bloom = true;
  std::size_t bloom_bits_per_key = 10;
};

class ShardedMap {
 public:
  explicit ShardedMap(const ShardedMapConfig& config = {});

  std::size_t shard_count() const { return shards_.size(); }
  /// Total live keys across shards.
  std::size_t size() const;

  /// Batched upsert: routes, partitions stably, runs each shard's
  /// sub-batch, then (only after the shard's batch succeeded) adds the
  /// keys to the shard's Bloom filter — the retry-safety rule for side
  /// state layered over upsert_batch's rehash-and-retry loop. A filter
  /// that now holds more live keys than capacity_keys(), or whose fill
  /// passed design_fill(), is rebuilt from live_keys().
  void upsert_batch(std::span<const vm::Word> keys,
                    std::span<const vm::Word> values);

  /// Batched lookup: `missing` for absent keys. Bloom-definite misses
  /// never reach the shard machine (counted in serve.bloom.skipped).
  vm::WordVec lookup_batch(std::span<const vm::Word> keys, vm::Word missing);

  /// Batched erase; returns the number of keys removed. Bloom filters are
  /// left as they are: an erased key's bits become false positives until
  /// a fill-triggered rebuild drops them.
  std::size_t erase_batch(std::span<const vm::Word> keys);

  bool contains(vm::Word key);

  /// Shard index per key, computed on the router machine (exposed so the
  /// tests can assert routing determinism and cross-shard coverage).
  vm::WordVec route(std::span<const vm::Word> keys);

  hashing::VectorHashMap& shard_map(std::size_t shard) {
    return shards_[shard]->map;
  }
  vm::VectorMachine& shard_machine(std::size_t shard) {
    return shards_[shard]->machine;
  }
  const BloomFilter* shard_bloom(std::size_t shard) const {
    return bloom_enabled_ ? &shards_[shard]->bloom : nullptr;
  }

  /// Lookups/erases answered "definitely absent" by a Bloom filter alone.
  std::uint64_t bloom_skips() const { return bloom_skips_; }
  std::uint64_t bloom_rebuilds() const { return bloom_rebuilds_; }

 private:
  struct Shard {
    explicit Shard(const ShardedMapConfig& config)
        : machine(config.machine),
          map(config.initial_capacity),
          bloom(config.initial_capacity, config.bloom_bits_per_key) {}
    vm::VectorMachine machine;
    hashing::VectorHashMap map;
    BloomFilter bloom;
  };

  /// Stable per-shard partition of a batch (scalar-unit bookkeeping):
  /// lanes[s] are original positions, in batch order.
  void partition(std::span<const vm::Word> keys,
                 std::vector<std::vector<vm::Word>>& shard_keys,
                 std::vector<std::vector<std::size_t>>& shard_lanes);

  void rebuild_bloom(Shard& shard);

  vm::VectorMachine router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool bloom_enabled_;
  std::uint64_t bloom_skips_ = 0;
  std::uint64_t bloom_rebuilds_ = 0;
};

}  // namespace folvec::serve

#include "serve/sharded_map.h"

#include <algorithm>

#include "support/require.h"
#include "telemetry/metrics.h"

namespace folvec::serve {

using vm::Mask;
using vm::Word;
using vm::WordVec;

namespace {

/// 2^64 / phi, the Fibonacci spreading constant (negative as a Word; the
/// multiply wraps, which every backend reproduces bit-identically).
constexpr Word kGoldenGamma = static_cast<Word>(0x9e3779b97f4a7c15ULL);

}  // namespace

ShardedMap::ShardedMap(const ShardedMapConfig& config)
    : router_(config.machine), bloom_enabled_(config.bloom) {
  FOLVEC_REQUIRE(config.shards >= 1, "ShardedMap needs at least one shard");
  shards_.reserve(config.shards);
  for (std::size_t s = 0; s < config.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config));
  }
  telemetry::gauge_set("serve.shards",
                       static_cast<std::int64_t>(config.shards));
}

std::size_t ShardedMap::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->map.size();
  return total;
}

WordVec ShardedMap::route(std::span<const Word> keys) {
  if (shards_.size() == 1) return router_.splat(keys.size(), 0);
  // Fibonacci multiplicative spread, then the Euclidean mod picks the
  // shard — low key bits stop deciding placement, so clustered key ranges
  // still fan out across lane groups.
  const WordVec mixed =
      router_.shr_scalar(router_.mul_scalar(keys, kGoldenGamma), 17);
  return router_.mod_scalar(mixed, static_cast<Word>(shards_.size()));
}

void ShardedMap::partition(std::span<const Word> keys,
                           std::vector<std::vector<Word>>& shard_keys,
                           std::vector<std::vector<std::size_t>>& shard_lanes) {
  const WordVec ids = route(keys);
  shard_keys.assign(shards_.size(), {});
  shard_lanes.assign(shards_.size(), {});
  // Stable split on the scalar unit (modeled like the hash map's duplicate
  // bookkeeping): batch order survives within each shard, which is what
  // keeps last-lane-wins identical to the unsharded reference.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto s = static_cast<std::size_t>(ids[i]);
    router_.scalar_mem(2);
    router_.scalar_branch(1);
    shard_keys[s].push_back(keys[i]);
    shard_lanes[s].push_back(i);
  }
}

void ShardedMap::upsert_batch(std::span<const Word> keys,
                              std::span<const Word> values) {
  FOLVEC_REQUIRE(keys.size() == values.size(),
                 "keys/values must have equal length");
  if (keys.empty()) return;
  std::vector<std::vector<Word>> shard_keys;
  std::vector<std::vector<std::size_t>> shard_lanes;
  partition(keys, shard_keys, shard_lanes);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shard_keys[s].empty()) continue;
    WordVec vals(shard_lanes[s].size());
    for (std::size_t i = 0; i < shard_lanes[s].size(); ++i) {
      vals[i] = values[shard_lanes[s][i]];
    }
    Shard& shard = *shards_[s];
    shard.map.upsert_batch(shard.machine, shard_keys[s], vals);
    // Bloom bits go in only after the batch committed: a retried attempt
    // re-adds the same keys (idempotent), a failed one adds nothing. A
    // filter past its design fill (erased keys' stale bits included) or
    // holding more live keys than it was sized for is rebuilt from the live
    // set.
    if (bloom_enabled_) {
      shard.bloom.insert_all(shard_keys[s]);
      if (shard.map.size() > shard.bloom.capacity_keys() ||
          shard.bloom.fill_ratio() > shard.bloom.design_fill()) {
        rebuild_bloom(shard);
      }
    }
    telemetry::count("serve.shard.upserts", shard_keys[s].size());
  }
  telemetry::count("serve.requests.upsert", keys.size());
}

WordVec ShardedMap::lookup_batch(std::span<const Word> keys, Word missing) {
  WordVec out(keys.size(), missing);
  if (keys.empty()) return out;
  std::vector<std::vector<Word>> shard_keys;
  std::vector<std::vector<std::size_t>> shard_lanes;
  partition(keys, shard_keys, shard_lanes);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shard_keys[s].empty()) continue;
    Shard& shard = *shards_[s];
    // Bloom gate: keys the filter rules out keep `missing` without the
    // shard machine issuing a single op.
    WordVec probe_keys;
    std::vector<std::size_t> probe_lanes;
    if (bloom_enabled_) {
      for (std::size_t i = 0; i < shard_keys[s].size(); ++i) {
        if (shard.bloom.may_contain(shard_keys[s][i])) {
          probe_keys.push_back(shard_keys[s][i]);
          probe_lanes.push_back(shard_lanes[s][i]);
        } else {
          ++bloom_skips_;
        }
      }
      telemetry::count("serve.bloom.skipped",
                       shard_keys[s].size() - probe_keys.size());
    } else {
      probe_keys = std::move(shard_keys[s]);
      probe_lanes = std::move(shard_lanes[s]);
    }
    if (probe_keys.empty()) continue;
    const WordVec found =
        shard.map.lookup_batch(shard.machine, probe_keys, missing);
    for (std::size_t i = 0; i < probe_lanes.size(); ++i) {
      out[probe_lanes[i]] = found[i];
    }
    telemetry::count("serve.shard.lookups", probe_keys.size());
  }
  telemetry::count("serve.requests.lookup", keys.size());
  return out;
}

std::size_t ShardedMap::erase_batch(std::span<const Word> keys) {
  if (keys.empty()) return 0;
  std::vector<std::vector<Word>> shard_keys;
  std::vector<std::vector<std::size_t>> shard_lanes;
  partition(keys, shard_keys, shard_lanes);
  std::size_t removed = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shard_keys[s].empty()) continue;
    Shard& shard = *shards_[s];
    WordVec probe_keys;
    if (bloom_enabled_) {
      for (const Word k : shard_keys[s]) {
        if (shard.bloom.may_contain(k)) {
          probe_keys.push_back(k);
        } else {
          ++bloom_skips_;
        }
      }
      telemetry::count("serve.bloom.skipped",
                       shard_keys[s].size() - probe_keys.size());
    } else {
      probe_keys = std::move(shard_keys[s]);
    }
    if (probe_keys.empty()) continue;
    const std::size_t shard_removed =
        shard.map.erase_batch(shard.machine, probe_keys);
    // The erased keys' bits stay set: false positives, which the contract
    // allows. The next upsert that fills the filter past its design fill
    // rebuilds it.
    removed += shard_removed;
    telemetry::count("serve.shard.erases", probe_keys.size());
  }
  telemetry::count("serve.requests.erase", keys.size());
  telemetry::count("serve.erased", removed);
  return removed;
}

bool ShardedMap::contains(Word key) {
  const WordVec ids = route(WordVec{key});
  Shard& shard = *shards_[static_cast<std::size_t>(ids[0])];
  if (bloom_enabled_ && !shard.bloom.may_contain(key)) {
    ++bloom_skips_;
    return false;
  }
  return shard.map.contains(shard.machine, key);
}

void ShardedMap::rebuild_bloom(Shard& shard) {
  const WordVec live = shard.map.live_keys(shard.machine);
  // Size for the live set with headroom so steady churn doesn't rebuild
  // on every batch.
  shard.bloom.reset(std::max<std::size_t>(64, live.size() * 2));
  shard.bloom.insert_all(live);
  ++bloom_rebuilds_;
  telemetry::count("serve.bloom.rebuilds");
}

}  // namespace folvec::serve

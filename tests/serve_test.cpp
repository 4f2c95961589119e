// Differential tests for the serving layer (src/serve/).
//
// The pivotal claim: a ShardedMap — any shard count, either backend, any
// scatter order, fused or not — is observationally identical to one reference
// VectorHashMap driven serially. Sharding, Bloom short-circuits, and the
// batch server's run splitting are all pure execution strategy; the
// key-value semantics (including last-lane-wins on duplicates) must not
// move by a bit.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "hashing/hash_map.h"
#include "serve/bloom.h"
#include "serve/coalescer.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "serve/sharded_map.h"
#include "support/prng.h"
#include "support/require.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"

namespace folvec::serve {
namespace {

using vm::BackendKind;
using vm::MachineConfig;
using vm::Word;
using vm::WordVec;

MachineConfig backend_config(BackendKind kind) {
  MachineConfig cfg;
  cfg.backend = kind;
  cfg.simd_level = vm::SimdLevel::kAuto;
  cfg.audit = false;
  return cfg;
}

/// One deterministic mixed workload: phases of upserts (with duplicate
/// keys), lookups (hit + miss mix), erases, and re-upserts of erased keys.
struct WorkloadOp {
  OpKind op;
  Word key;
  Word value;
};

std::vector<WorkloadOp> make_workload(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<WorkloadOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double roll = rng.unit();
    // Small key range on purpose: duplicates within a batch and
    // upsert-after-erase churn are the interesting cases.
    const Word key = static_cast<Word>(rng.below(400));
    if (roll < 0.5) {
      ops.push_back({OpKind::kUpsert, key, static_cast<Word>(rng.below(1u << 20))});
    } else if (roll < 0.85) {
      // Half the probes target a disjoint range: guaranteed misses, the
      // Bloom filter's bread and butter.
      const Word probe = rng.unit() < 0.5 ? key : key + 100000;
      ops.push_back({OpKind::kLookup, probe, 0});
    } else {
      ops.push_back({OpKind::kErase, key, 0});
    }
  }
  return ops;
}

/// Applies the workload to a single serial VectorHashMap, batch by batch
/// with the same same-op run splitting the server uses — the semantic
/// reference every configuration must match.
class ReferenceMap {
 public:
  ReferenceMap() : machine_(backend_config(BackendKind::kSerial)), map_(64) {}

  void upsert(std::span<const Word> keys, std::span<const Word> values) {
    map_.upsert_batch(machine_, keys, values);
  }
  WordVec lookup(std::span<const Word> keys) {
    return map_.lookup_batch(machine_, keys, kAbsent);
  }
  std::size_t erase(std::span<const Word> keys) {
    return map_.erase_batch(machine_, keys);
  }
  std::size_t size() const { return map_.size(); }
  WordVec live_keys() { return map_.live_keys(machine_); }

 private:
  vm::VectorMachine machine_;
  hashing::VectorHashMap map_;
};

/// Drives `sharded` and the reference through the workload in identical
/// batches of `batch_size` and asserts every observable matches.
void run_differential(ShardedMap& sharded, std::uint64_t seed,
                      std::size_t n_ops, std::size_t batch_size) {
  ReferenceMap reference;
  const std::vector<WorkloadOp> ops = make_workload(seed, n_ops);

  for (std::size_t base = 0; base < ops.size(); base += batch_size) {
    const std::size_t end = std::min(ops.size(), base + batch_size);
    std::size_t i = base;
    while (i < end) {
      std::size_t j = i;
      while (j < end && ops[j].op == ops[i].op) ++j;
      WordVec keys;
      keys.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) keys.push_back(ops[k].key);
      switch (ops[i].op) {
        case OpKind::kUpsert: {
          WordVec vals;
          vals.reserve(j - i);
          for (std::size_t k = i; k < j; ++k) vals.push_back(ops[k].value);
          sharded.upsert_batch(keys, vals);
          reference.upsert(keys, vals);
          break;
        }
        case OpKind::kLookup: {
          const WordVec got = sharded.lookup_batch(keys, kAbsent);
          const WordVec want = reference.lookup(keys);
          ASSERT_EQ(got, want) << "lookup batch at op " << i;
          break;
        }
        case OpKind::kErase: {
          const std::size_t got = sharded.erase_batch(keys);
          const std::size_t want = reference.erase(keys);
          ASSERT_EQ(got, want) << "erase batch at op " << i;
          break;
        }
      }
      i = j;
    }
    ASSERT_EQ(sharded.size(), reference.size()) << "size after op " << end;
  }

  // Final digest: every key either map might know about, compared lanewise.
  WordVec all_keys;
  for (Word k = 0; k < 400; ++k) all_keys.push_back(k);
  for (Word k = 100000; k < 100400; ++k) all_keys.push_back(k);
  EXPECT_EQ(sharded.lookup_batch(all_keys, kAbsent), reference.lookup(all_keys));
}

// ---- ShardedMap vs reference, across the full backend matrix ---------------

struct DiffParam {
  /// kScalar = the serial machine's scalar reference table; any other level
  /// = the kSimd machine forced to that level's table.
  vm::SimdLevel table;
  vm::ScatterOrder order;
  bool fuse;
  std::size_t shards;
};

std::string param_name(const testing::TestParamInfo<DiffParam>& info) {
  static constexpr const char* kOrderNames[] = {"forward", "reverse",
                                                "shuffled"};
  const std::string table = info.param.table == vm::SimdLevel::kScalar
                                ? "serial"
                                : vm::simd_level_name(info.param.table);
  return table + "_" +
         kOrderNames[static_cast<std::size_t>(info.param.order)] +
         (info.param.fuse ? "_fused" : "_unfused") + "_s" +
         std::to_string(info.param.shards);
}

class ShardedDiffTest : public testing::TestWithParam<DiffParam> {
 protected:
  void SetUp() override {
    if (!vm::simd_level_supported(GetParam().table)) {
      GTEST_SKIP() << vm::simd_level_name(GetParam().table)
                   << " is not available on this host/build";
    }
  }
  static MachineConfig machine() {
    const vm::SimdLevel table = GetParam().table;
    MachineConfig cfg = backend_config(table == vm::SimdLevel::kScalar
                                           ? BackendKind::kSerial
                                           : BackendKind::kSimd);
    cfg.simd_level = table;
    cfg.scatter_order = GetParam().order;
    cfg.fuse = GetParam().fuse;
    return cfg;
  }
};

TEST_P(ShardedDiffTest, MatchesReferenceMap) {
  ShardedMapConfig cfg;
  cfg.shards = GetParam().shards;
  cfg.machine = machine();
  ShardedMap sharded(cfg);
  run_differential(sharded, /*seed=*/41, /*n_ops=*/3000, /*batch_size=*/64);
}

TEST_P(ShardedDiffTest, MatchesReferenceWithBloomDisabled) {
  ShardedMapConfig cfg;
  cfg.shards = GetParam().shards;
  cfg.bloom = false;
  cfg.machine = machine();
  ShardedMap sharded(cfg);
  run_differential(sharded, /*seed=*/43, /*n_ops=*/1500, /*batch_size=*/48);
  EXPECT_EQ(sharded.bloom_skips(), 0u);
}

/// Kernel table x ScatterOrder x fuse x shard count. The table axis is
/// every table the build can compile, not just the widest one this host
/// picks; tables the host cannot run are skipped.
std::vector<DiffParam> diff_params() {
  std::vector<DiffParam> params;
  for (const vm::SimdLevel table :
       {vm::SimdLevel::kScalar, vm::SimdLevel::kNeon, vm::SimdLevel::kAvx2,
        vm::SimdLevel::kAvx512}) {
    for (const vm::ScatterOrder order :
         {vm::ScatterOrder::kForward, vm::ScatterOrder::kReverse,
          vm::ScatterOrder::kShuffled}) {
      for (const bool fuse : {true, false}) {
        for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                         std::size_t{8}}) {
          params.push_back({table, order, fuse, shards});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ShardedDiffTest,
                         testing::ValuesIn(diff_params()), param_name);

// ---- Bloom filter semantics ------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(256, 10);
  Xoshiro256 rng(7);
  std::vector<Word> keys;
  for (int i = 0; i < 256; ++i) keys.push_back(static_cast<Word>(rng.next() >> 1));
  bloom.insert_all(keys);
  for (const Word k : keys) EXPECT_TRUE(bloom.may_contain(k));
}

TEST(BloomFilterTest, FalsePositiveRateIsSmallAtCapacity) {
  BloomFilter bloom(1000, 10);
  for (Word k = 0; k < 1000; ++k) bloom.insert(k);
  std::size_t positives = 0;
  const std::size_t probes = 20000;
  for (std::size_t i = 0; i < probes; ++i) {
    if (bloom.may_contain(static_cast<Word>(1'000'000 + i))) ++positives;
  }
  // Theory says ~1% at 10 bits/key; leave generous slack for hash luck.
  EXPECT_LT(static_cast<double>(positives) / static_cast<double>(probes), 0.05);
}

TEST(BloomFilterTest, ResetDropsAllBits) {
  BloomFilter bloom(64, 10);
  for (Word k = 0; k < 64; ++k) bloom.insert(k);
  EXPECT_GT(bloom.fill_ratio(), 0.0);
  bloom.reset(128);
  EXPECT_EQ(bloom.fill_ratio(), 0.0);
  EXPECT_GE(bloom.capacity_keys(), 128u);
}

TEST(BloomFilterTest, FillTracksSetBitsAndDesignFill) {
  BloomFilter bloom(1000, 10);
  // 1 - e^(-k*n/m) with k = 6, n = 1000, m = 10000.
  EXPECT_NEAR(bloom.design_fill(), 1.0 - std::exp(-0.6), 1e-12);
  for (Word k = 0; k < 1000; ++k) bloom.insert(k);
  // A filter at capacity sits close to its design fill.
  EXPECT_NEAR(bloom.fill_ratio(), bloom.design_fill(), 0.02);
  const double fill = bloom.fill_ratio();
  for (Word k = 0; k < 1000; ++k) bloom.insert(k);  // idempotent
  EXPECT_EQ(bloom.fill_ratio(), fill);
}

// The FALSE-POSITIVES-ONLY contract under churn: across erases, fill- and
// capacity-triggered rebuilds and upsert retries, every live key must still
// pass the filter.
TEST(ShardedMapBloomTest, FalsePositiveOnlyInvariantAfterEraseRebuilds) {
  ShardedMapConfig cfg;
  cfg.shards = 4;
  ShardedMap sharded(cfg);
  Xoshiro256 rng(11);

  for (int round = 0; round < 20; ++round) {
    WordVec keys, vals;
    for (int i = 0; i < 64; ++i) {
      keys.push_back(static_cast<Word>(rng.below(500)));
      vals.push_back(static_cast<Word>(rng.below(1000)));
    }
    sharded.upsert_batch(keys, vals);
    WordVec dead;
    for (int i = 0; i < 24; ++i) {
      dead.push_back(static_cast<Word>(rng.below(500)));
    }
    sharded.erase_batch(dead);

    // Invariant check against each shard's own live set.
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
      const BloomFilter* bloom = sharded.shard_bloom(s);
      ASSERT_NE(bloom, nullptr);
      const WordVec live =
          sharded.shard_map(s).live_keys(sharded.shard_machine(s));
      for (const Word k : live) {
        EXPECT_TRUE(bloom->may_contain(k))
            << "false negative for live key " << k << " in shard " << s;
      }
    }
  }
  EXPECT_GT(sharded.bloom_rebuilds(), 0u);
  EXPECT_GT(sharded.bloom_skips(), 0u);  // misses actually short-circuited
}

TEST(ShardedMapBloomTest, EraseChurnNeverRebuilds) {
  ShardedMapConfig cfg;
  cfg.shards = 4;
  ShardedMap sharded(cfg);
  WordVec keys;
  for (Word k = 0; k < 1000; ++k) keys.push_back(k);
  sharded.upsert_batch(keys, keys);
  const std::uint64_t rebuilds = sharded.bloom_rebuilds();
  // Erase every key, 50 per batch: stale bits stay behind, no rebuild.
  for (std::size_t off = 0; off < keys.size(); off += 50) {
    EXPECT_EQ(sharded.erase_batch(std::span(keys).subspan(off, 50)), 50u);
  }
  EXPECT_EQ(sharded.size(), 0u);
  EXPECT_EQ(sharded.bloom_rebuilds(), rebuilds);
  // The stale filter still filters: lookups of a never-written range are
  // almost all answered by the filter alone.
  WordVec absent;
  for (Word k = 0; k < 10000; ++k) absent.push_back(1'000'000 + k);
  const std::uint64_t skips = sharded.bloom_skips();
  const WordVec got = sharded.lookup_batch(absent, kAbsent);
  for (const Word v : got) ASSERT_EQ(v, kAbsent);
  const auto skipped = static_cast<double>(sharded.bloom_skips() - skips);
  EXPECT_GE(skipped / static_cast<double>(absent.size()), 0.95);
}

TEST(ShardedMapBloomTest, UpsertsPastDesignFillRebuild) {
  // Upsert distinct keys and erase each batch right away: the live count
  // never exceeds the filter's capacity, so only the fill can trigger a
  // rebuild, and it must, before stale bits push the fill past design.
  ShardedMapConfig cfg;
  cfg.shards = 1;
  ShardedMap sharded(cfg);
  const BloomFilter* bloom = sharded.shard_bloom(0);
  ASSERT_NE(bloom, nullptr);
  const std::size_t capacity = bloom->capacity_keys();
  Word next = 0;
  for (int batch = 0; batch < 64; ++batch) {
    WordVec keys;
    for (int i = 0; i < 8; ++i) keys.push_back(next++);
    sharded.upsert_batch(keys, keys);
    ASSERT_LE(sharded.size(), bloom->capacity_keys());
    ASSERT_LE(bloom->fill_ratio(), bloom->design_fill()) << "batch " << batch;
    for (const Word k : keys) ASSERT_TRUE(bloom->may_contain(k));
    EXPECT_EQ(sharded.erase_batch(keys), keys.size());
  }
  // 512 distinct keys through a filter sized for 64: several rebuilds.
  EXPECT_GE(sharded.bloom_rebuilds(), 2u);
  EXPECT_EQ(bloom->capacity_keys(), capacity);
}

TEST(ShardedMapBloomTest, NegativeLookupsSkipTheShardMachine) {
  ShardedMapConfig cfg;
  cfg.shards = 2;
  ShardedMap sharded(cfg);
  WordVec keys{1, 2, 3, 4};
  WordVec vals{10, 20, 30, 40};
  sharded.upsert_batch(keys, vals);

  // Probing far-away keys: all absent, so (modulo Bloom false positives,
  // impossible here with 4 keys in a 640-bit filter... but allow them) the
  // skips counter moves and the answers are all-missing.
  WordVec absent;
  for (Word k = 1000; k < 1100; ++k) absent.push_back(k);
  const WordVec got = sharded.lookup_batch(absent, kAbsent);
  for (const Word v : got) EXPECT_EQ(v, kAbsent);
  EXPECT_GT(sharded.bloom_skips(), 0u);
}

// ---- Routing ---------------------------------------------------------------

TEST(ShardedMapRouteTest, RoutingIsDeterministicAndCoversShards) {
  ShardedMapConfig cfg;
  cfg.shards = 8;
  ShardedMap a(cfg), b(cfg);
  WordVec keys;
  for (Word k = 0; k < 4096; ++k) keys.push_back(k);
  const WordVec ra = a.route(keys);
  const WordVec rb = b.route(keys);
  EXPECT_EQ(ra, rb);
  std::set<Word> seen(ra.begin(), ra.end());
  EXPECT_EQ(seen.size(), 8u) << "dense key range should cover all shards";
  for (const Word s : ra) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 8);
  }
  // Spread check: the multiplicative hash should not leave any shard
  // starved on a dense range (perfect would be 512 per shard).
  std::vector<std::size_t> counts(8, 0);
  for (const Word s : ra) ++counts[static_cast<std::size_t>(s)];
  for (const std::size_t c : counts) EXPECT_GT(c, 256u);
}

// ---- RequestQueue / Coalescer ----------------------------------------------

TEST(RequestQueueTest, AssignsMonotonicIdsAndPreservesFifo) {
  RequestQueue queue;
  EXPECT_EQ(queue.push(OpKind::kUpsert, 7, 70), 1u);
  EXPECT_EQ(queue.push(OpKind::kLookup, 7, 0), 2u);
  EXPECT_EQ(queue.push(OpKind::kErase, 7, 0), 3u);
  EXPECT_EQ(queue.pending(), 3u);
  const std::vector<Request> got = queue.drain(10);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_EQ(got[0].op, OpKind::kUpsert);
  EXPECT_EQ(got[0].value, 70);
  EXPECT_EQ(got[2].op, OpKind::kErase);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(RequestQueueTest, CloseRejectsPushesAndWakesWaiters) {
  RequestQueue queue;
  queue.push(OpKind::kLookup, 1, 0);
  queue.close();
  EXPECT_EQ(queue.push(OpKind::kLookup, 2, 0), 0u);
  // Pending requests still drain after close.
  const std::vector<Request> got =
      queue.wait_batch(8, std::chrono::microseconds(1000));
  ASSERT_EQ(got.size(), 1u);
  // And a closed empty queue returns immediately with nothing.
  EXPECT_TRUE(queue.wait_batch(8, std::chrono::microseconds(1000)).empty());
}

TEST(CoalescerTest, PollRespectsMaxBatch) {
  RequestQueue queue;
  for (int i = 0; i < 10; ++i) queue.push(OpKind::kLookup, i, 0);
  Coalescer coalescer(queue, {.max_batch = 4});
  EXPECT_EQ(coalescer.poll_batch().size(), 4u);
  EXPECT_EQ(coalescer.poll_batch().size(), 4u);
  EXPECT_EQ(coalescer.poll_batch().size(), 2u);
  EXPECT_TRUE(coalescer.poll_batch().empty());
  EXPECT_EQ(coalescer.batches(), 3u);
  EXPECT_EQ(coalescer.coalesced_requests(), 10u);
}

// ---- BatchServer -----------------------------------------------------------

TEST(BatchServerTest, PumpModeMatchesReference) {
  BatchServerConfig cfg;
  cfg.map.shards = 4;
  BatchServer server(cfg);
  ReferenceMap reference;

  const std::vector<WorkloadOp> ops = make_workload(17, 600);
  std::vector<std::uint64_t> lookup_ids;
  std::vector<Word> lookup_keys;
  for (const WorkloadOp& op : ops) {
    const std::uint64_t id = server.submit(op.op, op.key, op.value);
    ASSERT_NE(id, 0u);
    if (op.op == OpKind::kLookup) {
      lookup_ids.push_back(id);
      lookup_keys.push_back(op.key);
    }
  }
  server.pump_all();

  // Mirror through the reference with the same run splitting.
  std::size_t i = 0;
  while (i < ops.size()) {
    std::size_t j = i;
    while (j < ops.size() && ops[j].op == ops[i].op) ++j;
    WordVec keys;
    for (std::size_t k = i; k < j; ++k) keys.push_back(ops[k].key);
    if (ops[i].op == OpKind::kUpsert) {
      WordVec vals;
      for (std::size_t k = i; k < j; ++k) vals.push_back(ops[k].value);
      reference.upsert(keys, vals);
    } else if (ops[i].op == OpKind::kErase) {
      reference.erase(keys);
    }
    i = j;
  }

  const std::vector<Response> responses = server.take_responses();
  ASSERT_EQ(responses.size(), ops.size());
  EXPECT_EQ(server.served(), ops.size());
  EXPECT_EQ(server.map().size(), reference.size());

  // Every lookup response must agree with replaying that lookup against
  // the final reference state... which only holds for lookups of keys not
  // mutated afterwards. Instead assert the response stream is internally
  // consistent: ids unique, statuses legal, and a full post-hoc lookup
  // sweep matches the reference exactly.
  std::set<std::uint64_t> ids;
  for (const Response& r : responses) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate response id " << r.id;
    if (r.op != OpKind::kLookup) {
      EXPECT_EQ(r.status, ResponseStatus::kOk);
    }
  }
  WordVec sweep;
  for (Word k = 0; k < 400; ++k) sweep.push_back(k);
  EXPECT_EQ(server.map().lookup_batch(sweep, kAbsent), reference.lookup(sweep));

  // Latency sketches saw every request of their kind.
  std::uint64_t sketched = 0;
  for (std::size_t op = 0; op < kOpKindCount; ++op) {
    sketched += server.latency_us(static_cast<OpKind>(op)).count();
  }
  EXPECT_EQ(sketched, ops.size());
}

TEST(BatchServerTest, LookupResponsesCarryValuesAndMissing) {
  BatchServer server;
  server.submit(OpKind::kUpsert, 5, 555);
  server.submit(OpKind::kLookup, 5, 0);
  server.submit(OpKind::kLookup, 6, 0);
  server.submit(OpKind::kErase, 5, 0);
  server.submit(OpKind::kLookup, 5, 0);
  server.pump_all();
  const std::vector<Response> rs = server.take_responses();
  ASSERT_EQ(rs.size(), 5u);
  EXPECT_EQ(rs[1].status, ResponseStatus::kOk);
  EXPECT_EQ(rs[1].value, 555);
  EXPECT_EQ(rs[2].status, ResponseStatus::kMissing);
  EXPECT_EQ(rs[4].status, ResponseStatus::kMissing);
}

TEST(BatchServerTest, ThreadedModeServesEverything) {
  BatchServerConfig cfg;
  cfg.map.shards = 2;
  cfg.coalesce.max_batch = 32;
  cfg.coalesce.max_wait = std::chrono::microseconds(100);
  BatchServer server(cfg);
  server.start();
  const std::size_t n = 500;
  for (std::size_t i = 0; i < n; ++i) {
    server.submit(OpKind::kUpsert, static_cast<Word>(i % 100),
                  static_cast<Word>(i));
  }
  for (std::size_t i = 0; i < 100; ++i) {
    server.submit(OpKind::kLookup, static_cast<Word>(i), 0);
  }
  server.stop();
  EXPECT_EQ(server.served(), n + 100);
  EXPECT_EQ(server.take_responses().size(), n + 100);
  EXPECT_EQ(server.map().size(), 100u);
}

TEST(BatchServerTest, RejectsUpsertOfTheAbsentSentinel) {
  BatchServer server;
  EXPECT_THROW(server.submit(OpKind::kUpsert, 1, kAbsent), std::exception);
}

TEST(BatchServerTest, RejectsNegativeKeysAtSubmit) {
  // Checked at submit, not when the batch executes: a bad key must neither
  // discard the responses of requests queued before it nor escape the
  // threaded dispatch loop.
  BatchServer server;
  server.submit(OpKind::kUpsert, 7, 70);
  server.submit(OpKind::kLookup, 7, 0);
  for (const OpKind op : {OpKind::kUpsert, OpKind::kLookup, OpKind::kErase}) {
    EXPECT_THROW(server.submit(op, -5, 0), PreconditionError)
        << op_kind_name(op);
  }
  EXPECT_EQ(server.pump_all(), 2u);
  const std::vector<Response> rs = server.take_responses();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[1].status, ResponseStatus::kOk);
  EXPECT_EQ(rs[1].value, 70);

  server.start();
  EXPECT_THROW(server.submit(OpKind::kErase, -1, 0), PreconditionError);
  server.submit(OpKind::kLookup, 7, 0);
  server.stop();
  EXPECT_EQ(server.served(), 3u);
}

}  // namespace
}  // namespace folvec::serve

// Tests for both hashing substrates: scalar open addressing, the Figure-8
// vectorized multiple hash (both probe variants), scalar chaining, and the
// Figure-7 FOL1 chaining inserter — including the forced-vectorization
// corruption demo of Figure 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "fol/fol1.h"
#include "hashing/chain_table.h"
#include "hashing/hash_fn.h"
#include "hashing/open_table.h"
#include "support/prng.h"
#include "support/status.h"

namespace folvec::hashing {
namespace {

using vm::MachineConfig;
using vm::ScatterOrder;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

std::vector<Word> table_contents(std::span<const Word> slots) {
  std::vector<Word> out;
  for (Word v : slots) {
    if (v != kUnentered) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(HashFnTest, ModHashIsEuclidean) {
  EXPECT_EQ(mod_hash(7, 5), 2);
  EXPECT_EQ(mod_hash(-7, 5), 3);
  EXPECT_EQ(mod_hash(0, 5), 0);
}

TEST(HashFnTest, FibHashStaysInRange) {
  for (Word k : {Word{0}, Word{1}, Word{123456789}, Word{1} << 40}) {
    const Word h = fib_hash(k, 521);
    EXPECT_GE(h, 0);
    EXPECT_LT(h, 521);
  }
}

TEST(ScalarOpenTableTest, InsertAndContains) {
  ScalarOpenTable t(521, ProbeVariant::kKeyDependent);
  for (Word k : {Word{353}, Word{911}, Word{42}}) t.insert(k);
  EXPECT_EQ(t.entered(), 3u);
  EXPECT_TRUE(t.contains(353));
  EXPECT_TRUE(t.contains(911));
  EXPECT_TRUE(t.contains(42));
  EXPECT_FALSE(t.contains(7));
}

TEST(ScalarOpenTableTest, PaperCollisionExample) {
  // Keys 353 and 911 both hash to 5 mod 521? Actually 353 mod 521 = 353;
  // use the paper's spirit with a small prime: keys colliding mod 101.
  ScalarOpenTable t(101, ProbeVariant::kKeyDependent);
  t.insert(5);
  t.insert(106);  // collides with 5
  EXPECT_TRUE(t.contains(5));
  EXPECT_TRUE(t.contains(106));
}

TEST(ScalarOpenTableTest, DuplicateInsertThrows) {
  ScalarOpenTable t(101, ProbeVariant::kKeyDependent);
  t.insert(17);
  EXPECT_THROW(t.insert(17), PreconditionError);
}

TEST(ScalarOpenTableTest, NegativeKeyRejected) {
  ScalarOpenTable t(101, ProbeVariant::kKeyDependent);
  EXPECT_THROW(t.insert(-3), PreconditionError);
}

TEST(ScalarOpenTableTest, TinyTableRejected) {
  EXPECT_THROW(ScalarOpenTable(16, ProbeVariant::kKeyDependent),
               PreconditionError);
}

TEST(ScalarOpenTableTest, FillToCapacity) {
  const std::size_t size = 67;
  ScalarOpenTable t(size, ProbeVariant::kKeyDependent);
  const auto keys = random_unique_keys(size, 1 << 20, 99);
  for (Word k : keys) t.insert(k);
  EXPECT_DOUBLE_EQ(t.load_factor(), 1.0);
  for (Word k : keys) EXPECT_TRUE(t.contains(k));
  // A full table is a data-dependent, recoverable condition (grow and
  // retry), not caller misuse.
  try {
    t.insert(1 << 21);
    FAIL() << "insert into a full table should throw";
  } catch (const RecoverableError& e) {
    EXPECT_EQ(e.code(), StatusCode::kTableFull);
  }
}

TEST(MultiHashOpenTest, MatchesScalarKeyMultiset) {
  const auto keys = random_unique_keys(260, 1 << 30, 7);
  VectorMachine m;
  std::vector<Word> table(521, kUnentered);
  const MultiHashStats stats =
      multi_hash_open_insert(m, table, keys, ProbeVariant::kKeyDependent);
  auto sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  EXPECT_EQ(table_contents(table), sorted_keys);
  EXPECT_GE(stats.iterations, 1u);
  EXPECT_EQ(stats.max_vector_len, keys.size());
}

TEST(MultiHashOpenTest, WorksIntoPartiallyFilledTable) {
  VectorMachine m;
  std::vector<Word> table(521, kUnentered);
  const auto first = random_unique_keys(100, 1 << 30, 11);
  multi_hash_open_insert(m, table, first, ProbeVariant::kKeyDependent);
  // Second batch, disjoint keys.
  const auto second = random_unique_keys(100, 1 << 30, 12);
  std::vector<Word> batch;
  for (Word k : second) {
    if (std::find(first.begin(), first.end(), k) == first.end()) {
      batch.push_back(k);
    }
  }
  multi_hash_open_insert(m, table, batch, ProbeVariant::kKeyDependent);
  std::vector<Word> all = first;
  all.insert(all.end(), batch.begin(), batch.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(table_contents(table), all);
}

TEST(MultiHashOpenTest, RejectsOverfill) {
  VectorMachine m;
  std::vector<Word> table(67, kUnentered);
  const auto keys = random_unique_keys(68, 1 << 20, 5);
  try {
    multi_hash_open_insert(m, table, keys, ProbeVariant::kKeyDependent);
    FAIL() << "overfilled batch should throw";
  } catch (const RecoverableError& e) {
    EXPECT_EQ(e.code(), StatusCode::kTableFull);
  }
  MultiHashStats stats;
  const Status st = try_multi_hash_open_insert(
      m, table, keys, ProbeVariant::kKeyDependent, &stats);
  EXPECT_EQ(st.code(), StatusCode::kTableFull);
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(MultiHashOpenTest, EmptyKeySetIsNoop) {
  VectorMachine m;
  std::vector<Word> table(67, kUnentered);
  const MultiHashStats stats = multi_hash_open_insert(
      m, table, WordVec{}, ProbeVariant::kKeyDependent);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_TRUE(table_contents(table).empty());
}

TEST(MultiHashOpenTest, AllKeysCollideAtOneEntry) {
  // Keys congruent mod size: the worst collision chain. The key-dependent
  // step must still spread and enter all of them.
  VectorMachine m;
  std::vector<Word> table(67, kUnentered);
  WordVec keys;
  for (Word i = 0; i < 20; ++i) keys.push_back(3 + 67 * i);
  multi_hash_open_insert(m, table, keys, ProbeVariant::kKeyDependent);
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(table_contents(table), sorted);
}

TEST(MultiHashOpenTest, LinearVariantAlsoCorrectJustSlower) {
  VectorMachine m_lin;
  VectorMachine m_key;
  std::vector<Word> t_lin(521, kUnentered);
  std::vector<Word> t_key(521, kUnentered);
  WordVec keys;
  for (Word i = 0; i < 30; ++i) keys.push_back(5 + 521 * i);
  const auto s_lin =
      multi_hash_open_insert(m_lin, t_lin, keys, ProbeVariant::kLinear);
  const auto s_key =
      multi_hash_open_insert(m_key, t_key, keys, ProbeVariant::kKeyDependent);
  EXPECT_EQ(table_contents(t_lin), table_contents(t_key));
  // The paper's optimization claim: colliding keys separate faster with the
  // key-dependent step, so it needs no more passes than +1 probing.
  EXPECT_LE(s_key.iterations, s_lin.iterations);
}

TEST(MultiHashOpenTest, ForcedVectorizationWithoutCheckLosesKeys) {
  // Figure 4b: a plain scatter with colliding hashed values silently drops
  // keys — the hazard FOL exists to prevent. The demonstration races on
  // purpose, so it opts out of ScatterCheck.
  MachineConfig cfg;
  cfg.audit = false;
  VectorMachine m(cfg);
  std::vector<Word> table(67, kUnentered);
  const WordVec keys{3, 70, 137};  // all hash to 3 mod 67
  const WordVec hashed = m.mod_scalar(keys, 67);
  m.scatter(table, hashed, keys);  // "forced" vector processing
  EXPECT_EQ(table_contents(table).size(), 1u)
      << "collision should have overwritten two of the three keys";
  // The checked algorithm recovers all three.
  std::vector<Word> table2(67, kUnentered);
  multi_hash_open_insert(m, table2, keys, ProbeVariant::kKeyDependent);
  EXPECT_EQ(table_contents(table2).size(), 3u);
}

// A 521-slot table holding 150 keys, every third of them erased into a
// tombstone (as VectorHashMap::erase_batch leaves them).
struct TombstonedTable {
  std::vector<Word> table = std::vector<Word>(521, kUnentered);
  std::vector<Word> live;
  std::size_t tombstones = 0;
};

TombstonedTable tombstoned_table(VectorMachine& m) {
  TombstonedTable t;
  const auto keys = random_unique_keys(150, 1 << 30, 41);
  multi_hash_open_insert(m, t.table, keys, ProbeVariant::kKeyDependent);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 3 != 0) {
      t.live.push_back(keys[i]);
      continue;
    }
    const auto at = std::find(t.table.begin(), t.table.end(), keys[i]);
    *at = kTombstone;
    ++t.tombstones;
  }
  return t;
}

/// Keys from `candidates` that are not in `taken`.
WordVec fresh_keys(const std::vector<Word>& candidates,
                   std::span<const Word> taken) {
  WordVec out;
  for (const Word k : candidates) {
    if (std::find(taken.begin(), taken.end(), k) == taken.end()) {
      out.push_back(k);
    }
  }
  return out;
}

TEST(MultiHashOpenTest, SlotTrackingInsertReusesTombstones) {
  VectorMachine m;
  TombstonedTable t = tombstoned_table(m);
  const WordVec keys = fresh_keys(random_unique_keys(200, 1 << 30, 43),
                                  std::vector<Word>(t.table));
  MultiHashStats stats;
  WordVec slots;
  const Status st = try_multi_hash_open_insert(
      m, t.table, keys, ProbeVariant::kKeyDependent, &stats, &slots);
  ASSERT_TRUE(st.is_ok()) << st.message();
  // Every key sits at its reported slot, and the reported reuse count is
  // exactly the tombstones that disappeared from the table.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(t.table[static_cast<std::size_t>(slots[i])], keys[i]);
  }
  const auto left = static_cast<std::size_t>(
      std::count(t.table.begin(), t.table.end(), kTombstone));
  EXPECT_GT(stats.tombstones_reused, 0u);
  EXPECT_EQ(stats.tombstones_reused, t.tombstones - left);
  // The old keys and the new ones are all still reachable along their
  // probe chains.
  const WordVec found = multi_hash_open_find(m, t.table, t.live,
                                             ProbeVariant::kKeyDependent);
  for (std::size_t i = 0; i < t.live.size(); ++i) {
    ASSERT_EQ(t.table[static_cast<std::size_t>(found[i])], t.live[i]);
  }
  EXPECT_EQ(multi_hash_open_find(m, t.table, keys,
                                 ProbeVariant::kKeyDependent),
            slots);
}

TEST(MultiHashOpenTest, SlotTrackingInsertAcceptsDuplicateKeys) {
  // Fresh keys repeated 1-4 times in shuffled lane order, into a table
  // with live keys and tombstones: equal keys walk one probe sequence in
  // lockstep, so they all land in one slot and the key is stored once.
  std::vector<MachineConfig> configs;
  for (const ScatterOrder order :
       {ScatterOrder::kForward, ScatterOrder::kReverse,
        ScatterOrder::kShuffled}) {
    MachineConfig serial;
    serial.scatter_order = order;
    serial.backend = vm::BackendKind::kSerial;
    MachineConfig simd = serial;
    simd.backend = vm::BackendKind::kSimd;
    configs.push_back(serial);
    configs.push_back(simd);
  }
  for (const MachineConfig& cfg : configs) {
    SCOPED_TRACE(testing::Message()
                 << "order " << static_cast<int>(cfg.scatter_order)
                 << ", backend " << static_cast<int>(cfg.backend));
    VectorMachine m(cfg);
    TombstonedTable t = tombstoned_table(m);
    const WordVec distinct = fresh_keys(random_unique_keys(120, 1 << 30, 47),
                                        std::vector<Word>(t.table));
    Xoshiro256 rng(53);
    WordVec keys;
    for (const Word k : distinct) {
      const Word copies = rng.in_range(1, 4);
      for (Word c = 0; c < copies; ++c) keys.push_back(k);
    }
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[static_cast<std::size_t>(
                             rng.in_range(0, static_cast<Word>(i)))]);
    }
    MultiHashStats stats;
    WordVec slots;
    const Status st = try_multi_hash_open_insert(
        m, t.table, keys, ProbeVariant::kKeyDependent, &stats, &slots);
    ASSERT_TRUE(st.is_ok()) << st.message();
    EXPECT_EQ(stats.max_vector_len, keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(t.table[static_cast<std::size_t>(slots[i])], keys[i]);
      for (std::size_t j = 0; j < i; ++j) {
        if (keys[j] == keys[i]) {
          ASSERT_EQ(slots[j], slots[i]);
        }
      }
    }
    for (const Word k : distinct) {
      ASSERT_EQ(std::count(t.table.begin(), t.table.end(), k), 1) << k;
    }
    // Tombstones are counted per slot taken, not per lane that entered.
    const auto left = static_cast<std::size_t>(
        std::count(t.table.begin(), t.table.end(), kTombstone));
    EXPECT_GT(stats.tombstones_reused, 0u);
    EXPECT_EQ(stats.tombstones_reused, t.tombstones - left);
    EXPECT_EQ(slots, multi_hash_open_find(m, t.table, keys,
                                          ProbeVariant::kKeyDependent));
  }
}

TEST(MultiHashOpenTest, ListingInsertNeverOverwritesTombstones) {
  VectorMachine m;
  TombstonedTable t = tombstoned_table(m);
  std::vector<std::size_t> tombstone_slots;
  for (std::size_t i = 0; i < t.table.size(); ++i) {
    if (t.table[i] == kTombstone) tombstone_slots.push_back(i);
  }
  ASSERT_EQ(tombstone_slots.size(), t.tombstones);
  const WordVec keys = fresh_keys(random_unique_keys(200, 1 << 30, 43),
                                  std::vector<Word>(t.table));
  MultiHashStats stats;
  ASSERT_TRUE(try_multi_hash_open_insert(m, t.table, keys,
                                         ProbeVariant::kKeyDependent, &stats)
                  .is_ok());
  for (const std::size_t slot : tombstone_slots) {
    EXPECT_EQ(t.table[slot], kTombstone) << "slot " << slot;
  }
  EXPECT_EQ(stats.tombstones_reused, 0u);
  const WordVec found =
      multi_hash_open_find(m, t.table, keys, ProbeVariant::kKeyDependent);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(t.table[static_cast<std::size_t>(found[i])], keys[i]);
  }
}

TEST(NextPrimeTest, SmallestPrimeAtLeastN) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(67), 67u);
  EXPECT_EQ(next_prime(135), 137u);
  EXPECT_EQ(next_prime(543), 547u);
  EXPECT_EQ(next_prime(2175), 2179u);
  EXPECT_EQ(next_prime(4351), 4357u);
  EXPECT_EQ(next_prime(4096), 4099u);
}

TEST(ChainTableTest, ScalarInsertAndCount) {
  ChainTable t(13, 32);
  t.insert_scalar(5);
  t.insert_scalar(18);  // collides with 5 mod 13
  t.insert_scalar(5);   // duplicate key
  EXPECT_EQ(t.count(5), 2u);
  EXPECT_EQ(t.count(18), 1u);
  EXPECT_EQ(t.count(6), 0u);
  EXPECT_EQ(t.entered(), 3u);
  // Push-front order: the chain at entry 5 is [5, 18, 5] newest-first.
  EXPECT_EQ(t.chain(5), (std::vector<Word>{5, 18, 5}));
}

TEST(ChainTableTest, PoolExhaustionThrows) {
  ChainTable t(13, 2);
  t.insert_scalar(1);
  t.insert_scalar(2);
  EXPECT_THROW(t.insert_scalar(3), PreconditionError);
}

TEST(MultiHashChainTest, MatchesScalarCounts) {
  const auto keys = random_keys(300, 200, 21);  // heavy duplication
  ChainTable scalar_t(31, 512);
  for (Word k : keys) scalar_t.insert_scalar(k);

  VectorMachine m;
  ChainTable vec_t(31, 512);
  multi_hash_chain_insert(m, vec_t, keys);

  EXPECT_EQ(vec_t.entered(), keys.size());
  for (Word k = 0; k < 200; ++k) {
    EXPECT_EQ(vec_t.count(k), scalar_t.count(k)) << "key " << k;
  }
}

TEST(MultiHashChainTest, ChainsHoldSameMultisetPerEntry) {
  const auto keys = random_keys(100, 50, 3);
  ChainTable scalar_t(7, 128);
  for (Word k : keys) scalar_t.insert_scalar(k);
  VectorMachine m;
  ChainTable vec_t(7, 128);
  multi_hash_chain_insert(m, vec_t, keys);
  for (std::size_t h = 0; h < 7; ++h) {
    auto a = scalar_t.chain(h);
    auto b = vec_t.chain(h);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "entry " << h;
  }
}

TEST(MultiHashChainTest, EmptyBatchIsNoop) {
  VectorMachine m;
  ChainTable t(7, 8);
  multi_hash_chain_insert(m, t, WordVec{});
  EXPECT_EQ(t.entered(), 0u);
}

// ---- drained chain insert ---------------------------------------------------
//
// Batches of 2048+ lanes whose first FOL1 round collapses hand the rest to
// the adaptive drain, whose sets multi_hash_chain_insert links in one pass.

enum class Sharing { kOneKey, kTwoKeys, kNOver64Keys, kZipf };

/// `n` keys sharing as `sharing` says: drawn uniformly from 1, 2 or n/64
/// distinct random keys, or Zipf(1.1) ranks over n ids.
std::vector<Word> shared_keys(std::size_t n, Sharing sharing,
                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Word> keys(n);
  if (sharing != Sharing::kZipf) {
    const std::size_t distinct = sharing == Sharing::kOneKey    ? 1
                                 : sharing == Sharing::kTwoKeys ? 2
                                                                : n / 64;
    const auto vocab = random_unique_keys(distinct, Word{1} << 40, seed + 1);
    for (Word& k : keys) k = vocab[rng.below(distinct)];
    return keys;
  }
  std::vector<double> cdf(n);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf[i] = sum;
  }
  for (Word& k : keys) {
    const double u = rng.unit() * sum;
    const auto rank = static_cast<Word>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    k = rank * 2654435761 % (Word{1} << 40);
  }
  return keys;
}

/// The per-set oracle: a chaining table's raw arrays, linked on the host
/// one FOL1 set at a time.
struct OracleChains {
  std::vector<Word> head;
  std::vector<Word> key;
  std::vector<Word> next;

  explicit OracleChains(ChainTable& t)
      : head(t.heads().begin(), t.heads().end()),
        key(t.node_keys().begin(), t.node_keys().end()),
        next(t.node_links().begin(), t.node_links().end()) {}

  void link(const fol::Decomposition& dec, std::span<const Word> keys) {
    const auto size = static_cast<Word>(head.size());
    for (const auto& set : dec.sets) {
      for (std::size_t lane : set) {
        const auto h = static_cast<std::size_t>(mod_hash(keys[lane], size));
        key.push_back(keys[lane]);
        next.push_back(head[h]);
        head[h] = static_cast<Word>(key.size() - 1);
      }
    }
  }
};

// (N, key sharing, scatter order, pre-filled table)
using DrainSweep = std::tuple<std::size_t, Sharing, ScatterOrder, bool>;

class DrainedChainInsertTest : public ::testing::TestWithParam<DrainSweep> {};

TEST_P(DrainedChainInsertTest, MatchesPerSetLinkingBitForBit) {
  const auto [n, sharing, order, prefill] = GetParam();
  constexpr std::size_t kTableSize = 4099;
  const auto keys =
      shared_keys(n, sharing, n + static_cast<std::size_t>(sharing));
  ChainTable t(kTableSize, n + 300);
  if (prefill) {
    for (Word k : random_keys(300, 1 << 20, 5)) t.insert_scalar(k);
  }
  OracleChains oracle(t);

  MachineConfig cfg;
  cfg.scatter_order = order;
  VectorMachine m(cfg);
  multi_hash_chain_insert(m, t, keys);

  // A second, identically configured machine yields the same sets.
  VectorMachine m_oracle(cfg);
  WordVec hashed(n);
  for (std::size_t i = 0; i < n; ++i) {
    hashed[i] = mod_hash(keys[i], static_cast<Word>(kTableSize));
  }
  WordVec work(kTableSize, 0);
  const fol::Decomposition dec = fol::fol1_decompose(m_oracle, hashed, work);
  if (sharing != Sharing::kZipf) {
    EXPECT_GT(dec.drained_lanes, 0u);
  }
  oracle.link(dec, keys);

  ASSERT_EQ(t.entered(), oracle.key.size());
  EXPECT_TRUE(std::equal(t.heads().begin(), t.heads().end(),
                         oracle.head.begin()));
  EXPECT_TRUE(std::equal(t.node_keys().begin(), t.node_keys().end(),
                         oracle.key.begin()));
  EXPECT_TRUE(std::equal(t.node_links().begin(), t.node_links().end(),
                         oracle.next.begin()));
}

std::string drain_sweep_name(const ::testing::TestParamInfo<DrainSweep>& p) {
  const auto [n, sharing, order, prefill] = p.param;
  const char* sharings[] = {"OneKey", "TwoKeys", "NOver64Keys", "Zipf"};
  const char* orders[] = {"Forward", "Reverse", "Shuffled"};
  return "N" + std::to_string(n) + "_" + sharings[static_cast<int>(sharing)] +
         "_" + orders[static_cast<int>(order)] +
         (prefill ? "_Prefilled" : "_Empty");
}

INSTANTIATE_TEST_SUITE_P(
    SharingSweep, DrainedChainInsertTest,
    ::testing::Combine(::testing::Values<std::size_t>(4096, 1 << 16),
                       ::testing::Values(Sharing::kOneKey, Sharing::kTwoKeys,
                                         Sharing::kNOver64Keys,
                                         Sharing::kZipf),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Bool()),
    drain_sweep_name);

TEST(DrainedChainInsertTest, DrainThresholdBatchesMatchScalarMultiset) {
  // One address: 2048 lanes leave 2047 after round one (below the drain
  // trigger), 2049 lanes leave 2048 (drained).
  for (const std::size_t n : {std::size_t{2048}, std::size_t{2049}}) {
    const std::vector<Word> keys(n, 12345);
    ChainTable scalar_t(31, n);
    for (Word k : keys) scalar_t.insert_scalar(k);
    VectorMachine m;
    ChainTable vec_t(31, n);
    multi_hash_chain_insert(m, vec_t, keys);
    EXPECT_EQ(vec_t.entered(), n);
    EXPECT_EQ(vec_t.count(12345), n) << "n = " << n;
    for (std::size_t h = 0; h < 31; ++h) {
      EXPECT_EQ(vec_t.chain(h), scalar_t.chain(h)) << "n = " << n;
    }
  }
}

TEST(DrainedChainInsertTest, ReusedWorkAreaIsHazardFreeAndMatchesFreshWork) {
  // The table keeps one label work area across calls. Two inserts into one
  // table on an audited machine record no hazard, and link the chains that
  // a fresh zeroed work area per call links. The second batch drains.
  constexpr std::size_t kTableSize = 4099;
  const std::vector<std::vector<Word>> batches = {
      shared_keys(4096, Sharing::kNOver64Keys, 71),
      shared_keys(4096, Sharing::kTwoKeys, 72)};
  MachineConfig cfg;
  cfg.audit = true;
  VectorMachine m(cfg);
  VectorMachine m_oracle(cfg);
  ChainTable t(kTableSize, 2 * 4096);
  OracleChains oracle(t);
  for (const std::vector<Word>& keys : batches) {
    multi_hash_chain_insert(m, t, keys);
    WordVec hashed(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      hashed[i] = mod_hash(keys[i], static_cast<Word>(kTableSize));
    }
    WordVec work(kTableSize, 0);
    oracle.link(fol::fol1_decompose(m_oracle, hashed, work), keys);
  }
  EXPECT_TRUE(m.hazards().empty()) << m.hazards().to_string();
  ASSERT_EQ(t.entered(), oracle.key.size());
  EXPECT_TRUE(std::equal(t.heads().begin(), t.heads().end(),
                         oracle.head.begin()));
  EXPECT_TRUE(std::equal(t.node_keys().begin(), t.node_keys().end(),
                         oracle.key.begin()));
  EXPECT_TRUE(std::equal(t.node_links().begin(), t.node_links().end(),
                         oracle.next.begin()));
}

TEST(DrainedChainInsertTest, InstructionCountIndependentOfDrainedSets) {
  // distinct = 1 drains 4095 singleton sets, distinct = 8 about 512 sets of
  // 8; the tail link issues the same instructions for both.
  const auto instructions = [](std::size_t distinct) {
    VectorMachine m;
    ChainTable t(4099, 4096);
    std::vector<Word> keys(4096);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<Word>(i % distinct);
    }
    multi_hash_chain_insert(m, t, keys);
    return m.cost().total_instructions();
  };
  EXPECT_EQ(instructions(1), instructions(8));
}

// ---- property sweep ---------------------------------------------------------

// (table size, load factor percent, probe variant, scatter order)
using OpenSweep = std::tuple<std::size_t, int, ProbeVariant, ScatterOrder>;

class MultiHashOpenPropertyTest : public ::testing::TestWithParam<OpenSweep> {
};

TEST_P(MultiHashOpenPropertyTest, AllKeysEnteredOnce) {
  const auto [size, load_pct, variant, order] = GetParam();
  const auto n = static_cast<std::size_t>(
      static_cast<double>(size) * static_cast<double>(load_pct) / 100.0);
  const auto keys = random_unique_keys(
      n, 1 << 30, size * 1000 + static_cast<std::uint64_t>(load_pct));
  MachineConfig cfg;
  cfg.scatter_order = order;
  VectorMachine m(cfg);
  std::vector<Word> table(size, kUnentered);
  multi_hash_open_insert(m, table, keys, variant);
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(table_contents(table), sorted);

  // The slot-reporting insert places every key exactly where the listing
  // does, and each reported slot is the one the lockstep find returns.
  VectorMachine m_slots(cfg);
  std::vector<Word> tracked(size, kUnentered);
  WordVec slots;
  ASSERT_TRUE(try_multi_hash_open_insert(m_slots, tracked, keys, variant,
                                         nullptr, &slots)
                  .is_ok());
  EXPECT_EQ(tracked, table);
  EXPECT_EQ(slots, multi_hash_open_find(m_slots, tracked, keys, variant));
}

INSTANTIATE_TEST_SUITE_P(
    LoadAndOrderSweep, MultiHashOpenPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(67, 521),
                       ::testing::Values(10, 50, 90, 100),
                       ::testing::Values(ProbeVariant::kLinear,
                                         ProbeVariant::kKeyDependent),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled)));

// (table size, n keys, key range, scatter order)
using ChainSweep = std::tuple<std::size_t, std::size_t, Word, ScatterOrder>;

class MultiHashChainPropertyTest
    : public ::testing::TestWithParam<ChainSweep> {};

TEST_P(MultiHashChainPropertyTest, CountsMatchScalar) {
  const auto [size, n, range, order] = GetParam();
  const auto keys = random_keys(n, range, n * 17 + size);
  ChainTable scalar_t(size, n + 1);
  for (Word k : keys) scalar_t.insert_scalar(k);
  MachineConfig cfg;
  cfg.scatter_order = order;
  VectorMachine m(cfg);
  ChainTable vec_t(size, n + 1);
  multi_hash_chain_insert(m, vec_t, keys);
  std::unordered_map<Word, std::size_t> expected;
  for (Word k : keys) ++expected[k];
  for (const auto& [k, c] : expected) {
    ASSERT_EQ(vec_t.count(k), c) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DuplicationSweep, MultiHashChainPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(7, 31, 257),
                       ::testing::Values<std::size_t>(1, 50, 400),
                       ::testing::Values<Word>(5, 1000, 1 << 30),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kShuffled)));

}  // namespace
}  // namespace folvec::hashing

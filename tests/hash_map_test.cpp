// Tests for VectorHashMap: upsert/lookup semantics, within-batch duplicate
// resolution, growth/rehashing, and a randomized differential test against
// std::unordered_map.
#include "hashing/hash_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "support/faultsim.h"
#include "support/prng.h"
#include "support/status.h"

namespace folvec::hashing {
namespace {

using vm::MachineConfig;
using vm::ScatterOrder;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

/// size() and tombstones() must agree with a recount of the slot array.
void expect_counts_match_table(const VectorHashMap& map) {
  const std::span<const Word> slots = map.slots();
  EXPECT_EQ(map.size(),
            static_cast<std::size_t>(std::count_if(
                slots.begin(), slots.end(), [](Word v) { return v >= 0; })));
  EXPECT_EQ(map.tombstones(), static_cast<std::size_t>(std::count(
                                  slots.begin(), slots.end(), kTombstone)));
}

TEST(VectorHashMapTest, InsertAndLookup) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{10, 20, 30}, WordVec{100, 200, 300});
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{20, 10, 99, 30}, -1),
            (WordVec{200, 100, -1, 300}));
  EXPECT_TRUE(map.contains(m, 10));
  EXPECT_FALSE(map.contains(m, 11));
}

TEST(VectorHashMapTest, UpsertOverwritesExisting) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{5}, WordVec{50});
  map.upsert_batch(m, WordVec{5, 6}, WordVec{55, 60});
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{5, 6}, -1), (WordVec{55, 60}));
}

TEST(VectorHashMapTest, DuplicateKeysInBatchLastLaneWins) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{7, 8, 7, 7}, WordVec{1, 2, 3, 4});
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{7, 8}, -1), (WordVec{4, 2}));

  // 300 new keys, each repeated three times in one batch, outgrow the
  // initial capacity: every occurrence takes the slot its first occurrence
  // was entered at, so the last lane still wins after the growth rehash.
  const std::size_t capacity_before = map.capacity();
  const auto fresh = random_unique_keys(300, 1 << 30, 17);
  WordVec keys;
  WordVec values;
  for (Word round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      keys.push_back(fresh[i]);
      values.push_back(round * 1000 + static_cast<Word>(i));
    }
  }
  for (const Word k : fresh) ASSERT_GT(k, 8) << "seed collides with 7/8";
  map.upsert_batch(m, keys, values);
  EXPECT_GT(map.capacity(), capacity_before);
  EXPECT_EQ(map.size(), 2 + fresh.size());
  const WordVec found = map.lookup_batch(m, fresh, -1);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(found[i], 2000 + static_cast<Word>(i)) << "key " << fresh[i];
  }
  EXPECT_EQ(map.lookup_batch(m, WordVec{7, 8}, -1), (WordVec{4, 2}));
}

TEST(VectorHashMapTest, RepeatsAndHotKeyMatchUnorderedMap) {
  // One new-key lane in eight repeats an earlier lane's key, and one hot
  // key fills 2049 more lanes, on top of overwrites of stored keys. Every
  // copy of a new key inserts; the map must still grow by the distinct
  // keys only, and the last lane of each key must win.
  for (const ScatterOrder order :
       {ScatterOrder::kForward, ScatterOrder::kReverse,
        ScatterOrder::kShuffled}) {
    SCOPED_TRACE(static_cast<int>(order));
    MachineConfig cfg;
    cfg.scatter_order = order;
    VectorMachine m(cfg);
    VectorHashMap map;
    std::unordered_map<Word, Word> reference;
    const auto pool = random_unique_keys(5000, 1 << 30, 61);
    const std::span<const Word> stored = std::span(pool).first(500);
    map.upsert_batch(m, stored, stored);
    for (const Word k : stored) reference[k] = k;

    Xoshiro256 rng(67);
    const Word hot = pool[4999];
    WordVec keys;
    for (std::size_t i = 0; i < 4096; ++i) {
      if (i % 8 == 7) {
        const Word repeat = keys[static_cast<std::size_t>(
            rng.in_range(0, static_cast<Word>(keys.size()) - 1))];
        keys.push_back(repeat);
      } else if (i % 4 == 0) {
        keys.push_back(stored[static_cast<std::size_t>(rng.in_range(0, 499))]);
      } else {
        keys.push_back(pool[500 + i]);
      }
    }
    for (std::size_t i = 0; i < 2049; ++i) {
      keys.insert(keys.begin() + static_cast<std::ptrdiff_t>(rng.in_range(
                                     0, static_cast<Word>(keys.size()))),
                  hot);
    }
    WordVec values(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      values[i] = static_cast<Word>(i) + 1000000;
      reference[keys[i]] = values[i];
    }
    map.upsert_batch(m, keys, values);
    EXPECT_EQ(map.size(), reference.size());
    expect_counts_match_table(map);
    WordVec queries;
    WordVec want;
    for (const auto& [k, v] : reference) {
      queries.push_back(k);
      want.push_back(v);
    }
    EXPECT_EQ(map.lookup_batch(m, queries, -1), want);
  }
}

TEST(VectorHashMapTest, NegativeKeysRejectedByEveryOperation) {
  // -1 and -2 equal the kUnentered and kTombstone slot markers, so a
  // negative key would "hit" a free or erased slot.
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{5}, WordVec{50});
  map.erase_batch(m, WordVec{5});
  map.upsert_batch(m, WordVec{6}, WordVec{60});
  for (const Word k : {Word{-1}, Word{-2}, Word{-7}}) {
    EXPECT_THROW(map.lookup_batch(m, WordVec{6, k}, -99), PreconditionError)
        << "key " << k;
    EXPECT_THROW(map.contains(m, k), PreconditionError) << "key " << k;
    EXPECT_THROW(map.erase_batch(m, WordVec{k}), PreconditionError)
        << "key " << k;
    EXPECT_THROW(map.upsert_batch(m, WordVec{k}, WordVec{1}),
                 PreconditionError)
        << "key " << k;
  }
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{5, 6}, -99), (WordVec{-99, 60}));
}

TEST(VectorHashMapTest, EmptyBatchIsNoop) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{}, WordVec{});
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.lookup_batch(m, WordVec{}, -1).empty());
}

TEST(VectorHashMapTest, MismatchedBatchThrows) {
  VectorMachine m;
  VectorHashMap map;
  EXPECT_THROW(map.upsert_batch(m, WordVec{1}, WordVec{}),
               PreconditionError);
  EXPECT_THROW(map.upsert_batch(m, WordVec{-1}, WordVec{0}),
               PreconditionError);
}

TEST(VectorHashMapTest, GrowthKeepsEverything) {
  VectorMachine m;
  VectorHashMap map(64);
  const std::size_t initial_capacity = map.capacity();
  const auto keys = random_unique_keys(500, 1 << 30, 3);
  WordVec values(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    values[i] = static_cast<Word>(i);
  }
  // Insert in several batches to exercise repeated growth.
  for (std::size_t off = 0; off < keys.size(); off += 100) {
    map.upsert_batch(
        m, std::span(keys).subspan(off, 100),
        std::span<const Word>(values).subspan(off, 100));
  }
  EXPECT_GT(map.capacity(), initial_capacity);
  EXPECT_GT(map.rehash_count(), 0u);
  EXPECT_LE(map.load_factor(), 0.7);
  const WordVec found = map.lookup_batch(m, keys, -1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(found[i], values[i]) << "key " << keys[i];
  }
}

TEST(VectorHashMapEraseTest, EraseRemovesAndLookupMisses) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{1, 2, 3, 4}, WordVec{10, 20, 30, 40});
  EXPECT_EQ(map.erase_batch(m, WordVec{2, 4, 99}), 2u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.lookup_batch(m, WordVec{1, 2, 3, 4}, -1),
            (WordVec{10, -1, 30, -1}));
}

TEST(VectorHashMapEraseTest, DuplicateEraseKeysCountOnce) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{7}, WordVec{70});
  EXPECT_EQ(map.erase_batch(m, WordVec{7, 7, 7}), 1u);
  EXPECT_EQ(map.size(), 0u);
}

TEST(VectorHashMapEraseTest, RepeatedEraseKeysReturnDistinctCount) {
  // 300 stored keys erased with 1-3 copies each, mixed with absent keys:
  // the return value and size() count keys, not lanes.
  VectorMachine m;
  VectorHashMap map;
  const auto pool = random_unique_keys(1200, 1 << 30, 71);
  const std::span<const Word> stored = std::span(pool).first(1000);
  map.upsert_batch(m, stored, stored);
  Xoshiro256 rng(73);
  WordVec dead;
  for (std::size_t i = 0; i < 300; ++i) {
    const Word copies = rng.in_range(1, 3);
    for (Word c = 0; c < copies; ++c) dead.push_back(stored[3 * i]);
    dead.push_back(pool[1000 + i % 200]);
  }
  EXPECT_EQ(map.erase_batch(m, dead), 300u);
  EXPECT_EQ(map.size(), 700u);
  expect_counts_match_table(map);
  EXPECT_EQ(map.lookup_batch(m, WordVec{stored[0], stored[1]}, -1),
            (WordVec{-1, stored[1]}));
}

TEST(VectorHashMapEraseTest, RepeatedKeyReusesOneTombstone) {
  // A key erased into a tombstone and re-upserted with three copies in one
  // batch: the copies share the tombstone, which counts as reused once.
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{5, 6}, WordVec{50, 60});
  ASSERT_EQ(map.erase_batch(m, WordVec{5}), 1u);
  ASSERT_EQ(map.tombstones(), 1u);
  map.upsert_batch(m, WordVec{5, 5, 5}, WordVec{51, 52, 53});
  EXPECT_EQ(map.tombstones(), 0u);
  EXPECT_EQ(map.size(), 2u);
  expect_counts_match_table(map);
  EXPECT_EQ(map.lookup_batch(m, WordVec{5, 6}, -1), (WordVec{53, 60}));
}

TEST(VectorHashMapEraseTest, ReinsertAfterEraseWorks) {
  VectorMachine m;
  VectorHashMap map;
  map.upsert_batch(m, WordVec{5, 6}, WordVec{50, 60});
  map.erase_batch(m, WordVec{5});
  map.upsert_batch(m, WordVec{5}, WordVec{55});
  EXPECT_EQ(map.lookup_batch(m, WordVec{5, 6}, -1), (WordVec{55, 60}));
  EXPECT_EQ(map.size(), 2u);
}

TEST(VectorHashMapEraseTest, ProbeChainsSurviveTombstones) {
  // Force a probe chain: keys congruent modulo the capacity collide; erase
  // the first link and the second must stay reachable.
  VectorMachine m;
  VectorHashMap map(64);  // rounds to capacity 67
  const Word cap = static_cast<Word>(map.capacity());
  const WordVec chain{3, 3 + cap, 3 + 2 * cap};
  map.upsert_batch(m, chain, WordVec{1, 2, 3});
  map.erase_batch(m, WordVec{chain[0]});
  EXPECT_EQ(map.lookup_batch(m, chain, -1), (WordVec{-1, 2, 3}));
}

TEST(VectorHashMapEraseTest, HeavyChurnTriggersTombstoneRehash) {
  VectorMachine m;
  VectorHashMap map;
  Xoshiro256 rng(9);
  std::unordered_map<Word, Word> reference;
  for (int round = 0; round < 30; ++round) {
    WordVec keys(40);
    WordVec values(40);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng.in_range(0, 399);
      values[i] = rng.in_range(0, 1000);
      reference[keys[i]] = values[i];
    }
    map.upsert_batch(m, keys, values);
    // Erase a random half of the known keys.
    WordVec to_erase;
    for (const auto& [k, v] : reference) {
      if (rng.unit() < 0.5) to_erase.push_back(k);
    }
    map.erase_batch(m, to_erase);
    for (Word k : to_erase) reference.erase(k);
    ASSERT_EQ(map.size(), reference.size()) << "round " << round;
  }
  EXPECT_GT(map.rehash_count(), 0u);
  // Final content check.
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(map.lookup_batch(m, WordVec{k}, -1)[0], v);
  }
}

// ---- tombstone reuse ----------------------------------------------------------

TEST(VectorHashMapEraseTest, HotKeyChurnKeepsItsChainLength) {
  // One key erased and re-upserted over and over: each upsert re-enters
  // the key into the tombstone its erase left, so neither the probe chain
  // nor the work per cycle grows, and no tombstone rehash ever fires.
  VectorMachine m;
  VectorHashMap map;
  WordVec base;
  WordVec base_values;
  for (Word k = 0; k < 40; ++k) {
    base.push_back(k);
    base_values.push_back(k);
  }
  map.upsert_batch(m, base, base_values);
  const std::size_t rehashes = map.rehash_count();
  const std::size_t capacity = map.capacity();
  std::uint64_t instructions_at_10 = 0;
  std::uint64_t instructions_at_10000 = 0;
  for (int cycle = 1; cycle <= 10000; ++cycle) {
    const std::uint64_t before = m.cost().total_instructions();
    ASSERT_EQ(map.erase_batch(m, WordVec{0}), 1u);
    map.upsert_batch(m, WordVec{0}, WordVec{cycle});
    const std::uint64_t spent = m.cost().total_instructions() - before;
    if (cycle == 10) instructions_at_10 = spent;
    if (cycle == 10000) instructions_at_10000 = spent;
  }
  EXPECT_EQ(map.rehash_count(), rehashes);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(instructions_at_10000, instructions_at_10);
  EXPECT_EQ(map.size(), base.size());
  EXPECT_EQ(map.lookup_batch(m, WordVec{0, 39}, -1), (WordVec{10000, 39}));
}

TEST(VectorHashMapEraseTest, MixedChurnMatchesUnorderedMap) {
  // Skewed upserts and erases over a small key range, so inserts keep
  // landing in tombstones; every lookup must agree with the reference.
  VectorMachine m;
  VectorHashMap map;
  Xoshiro256 rng(23);
  std::unordered_map<Word, Word> reference;
  const auto draw_key = [&rng] {
    // Half the traffic on 8 hot keys, the rest over 300.
    return rng.unit() < 0.5 ? rng.in_range(0, 7) : rng.in_range(0, 299);
  };
  for (int round = 0; round < 200; ++round) {
    // Lanes 12-15 repeat lanes 0-3, and the erase repeats its first key,
    // so every batch carries in-batch repeats beyond the hot keys'.
    WordVec keys(16);
    WordVec values(16);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = i < 12 ? draw_key() : keys[i - 12];
      values[i] = rng.in_range(0, 1 << 20);
      reference[keys[i]] = values[i];
    }
    map.upsert_batch(m, keys, values);
    WordVec dead(12);
    for (Word& k : dead) k = draw_key();
    dead.push_back(dead[0]);
    map.erase_batch(m, dead);
    for (const Word k : dead) reference.erase(k);
    ASSERT_EQ(map.size(), reference.size()) << "round " << round;

    WordVec queries;
    for (Word k = 0; k < 300; ++k) queries.push_back(k);
    const WordVec found = map.lookup_batch(m, queries, -1);
    for (const Word k : queries) {
      const auto it = reference.find(k);
      ASSERT_EQ(found[static_cast<std::size_t>(k)],
                it == reference.end() ? -1 : it->second)
          << "key " << k << " round " << round;
    }
  }
  expect_counts_match_table(map);
}

TEST(VectorHashMapAuditTest, DuplicateUpsertAndEraseRaiseNoHazard) {
  // The owner count scatters lane labels into shared slots; the ScatterCheck
  // auditor must accept it (the ordered scatter defines the survivor).
  MachineConfig cfg;
  cfg.audit = true;
  cfg.audit_throw = true;
  VectorMachine m(cfg);
  VectorHashMap map;
  const WordVec keys{9, 4, 9, 9, 17, 4, 30};
  const WordVec values{1, 2, 3, 4, 5, 6, 7};
  ASSERT_NO_THROW(map.upsert_batch(m, keys, values));
  EXPECT_EQ(map.lookup_batch(m, WordVec{9, 4, 17, 30}, -1),
            (WordVec{4, 6, 5, 7}));
  ASSERT_NO_THROW(EXPECT_EQ(map.erase_batch(m, WordVec{4, 9, 4, 30, 9}), 3u));
  EXPECT_TRUE(m.hazards().empty()) << m.hazards().to_string();
  EXPECT_EQ(map.size(), 1u);
  expect_counts_match_table(map);
}

TEST(VectorHashMapFaultTest, DuplicateUpsertStaysCountedUnderElsFaults) {
  // Every unmasked scatter-class instruction stores the amalgam of its
  // colliding lanes. Copies of a new key share a slot, so the owner count
  // must still find one owner for it.
  VectorMachine m;
  VectorHashMap map;
  FaultPlan plan(1, "els%1");
  ScopedFaultPlan scoped(&plan);
  map.upsert_batch(m, WordVec{5, 5, 6}, WordVec{50, 51, 60});
  EXPECT_EQ(map.size(), 2u);
  expect_counts_match_table(map);
  EXPECT_EQ(map.lookup_batch(m, WordVec{5, 6}, -1), (WordVec{51, 60}));
  EXPECT_EQ(map.erase_batch(m, WordVec{5}), 1u);
  EXPECT_EQ(map.size(), 1u);
  expect_counts_match_table(map);
}

TEST(VectorHashMapFaultTest, DuplicateEraseStaysCountedUnderElsFaults) {
  // Repeated erase keys: one tombstone per slot is stored and counted, and
  // no amalgam of tombstone markers (two copies would leave a live key 0,
  // three copies kUnentered, cutting 73's probe chain) reaches the table.
  VectorMachine m;
  VectorHashMap map;
  ASSERT_EQ(map.capacity(), 67u);
  map.upsert_batch(m, WordVec{5, 6}, WordVec{50, 60});
  map.upsert_batch(m, WordVec{73}, WordVec{730});  // probes past 6's slot
  FaultPlan plan(1, "els%1");
  ScopedFaultPlan scoped(&plan);
  EXPECT_EQ(map.erase_batch(m, WordVec{5, 5}), 1u);
  EXPECT_EQ(map.size(), 2u);
  expect_counts_match_table(map);
  EXPECT_EQ(std::count(map.slots().begin(), map.slots().end(), Word{0}), 0);
  EXPECT_EQ(map.erase_batch(m, WordVec{6, 6, 6}), 1u);
  EXPECT_EQ(map.size(), 1u);
  expect_counts_match_table(map);
  EXPECT_EQ(map.lookup_batch(m, WordVec{5, 6, 73}, -1),
            (WordVec{-1, -1, 730}));
}

TEST(VectorHashMapTest, CapacitiesArePrime) {
  // The doubling ladder 67, 135, 271, 543, ... rounds up to a prime, so no
  // key-dependent probe cycle (step in [1, 32]) can miss a free slot.
  const auto is_prime = [](std::size_t v) {
    for (std::size_t d = 2; d * d <= v; ++d) {
      if (v % d == 0) return false;
    }
    return v > 1;
  };
  EXPECT_EQ(VectorHashMap(64).capacity(), 67u);
  EXPECT_EQ(VectorHashMap(68).capacity(), 137u);
  EXPECT_EQ(VectorHashMap(500).capacity(), 547u);
  // Growth climbs one rung per rehash: 67 -> 137 -> 271 -> 547 -> 1087 ->
  // 2179 -> 4357 for 3000 keys at load <= 0.7, never skipping a rung.
  VectorMachine m;
  VectorHashMap map;
  const auto keys = random_unique_keys(3000, 1 << 30, 29);
  for (std::size_t off = 0; off < keys.size(); off += 250) {
    map.upsert_batch(m, std::span(keys).subspan(off, 250),
                     std::span(keys).subspan(off, 250));
    ASSERT_TRUE(is_prime(map.capacity())) << map.capacity();
  }
  EXPECT_EQ(map.capacity(), 4357u);
  EXPECT_EQ(map.rehash_count(), 6u);
}

// ---- retry idempotency around the gcd probe-cycle hazard --------------------
//
// A composite table size 135 = 27 * 5: a key with (key & 31) == 26 probes
// with step 27, which cycles through only 5 of the 135 slots. Six such keys
// sharing one mod-27 slot family saturate that cycle — five land, the sixth
// sweeps the table, and the insert reports kProbeCycleSaturated with the
// five left in the table as partially-applied strays. VectorHashMap sizes
// are prime, so the map itself never reaches that state; the first test
// pins it on a caller-owned table, and the map-level tests drive the same
// recovery loop with injected probe faults.

WordVec gcd_hazard_keys() {
  // k ≡ 26 (mod 32) fixes probe step 27; k ≡ 26 (mod 27) fixes the slot
  // family; both at once: k ≡ 26 (mod 864).
  WordVec keys;
  for (Word j = 0; j < 6; ++j) keys.push_back(26 + 864 * j);
  return keys;
}

TEST(VectorHashMapRecoveryTest, SaturatedCycleLeavesPartialStrays) {
  VectorMachine m;
  std::vector<Word> table(135, kUnentered);
  // Two of the five cycle slots hold tombstones: the slot-tracking insert
  // takes them, and the failed pass reports them consumed.
  table[53] = kTombstone;
  table[107] = kTombstone;
  const WordVec six = gcd_hazard_keys();
  MultiHashStats stats;
  WordVec slots;
  const Status st = try_multi_hash_open_insert(
      m, table, six, ProbeVariant::kKeyDependent, &stats, &slots);
  EXPECT_EQ(st.code(), StatusCode::kProbeCycleSaturated);
  EXPECT_EQ(stats.iterations, table.size());
  EXPECT_EQ(stats.tombstones_reused, 2u);
  EXPECT_EQ(std::count(table.begin(), table.end(), kTombstone), 0);
  std::size_t present = 0;
  std::size_t stranded = 0;
  for (std::size_t i = 0; i < six.size(); ++i) {
    if (slots[i] == -1) {
      ++stranded;
      EXPECT_EQ(std::count(table.begin(), table.end(), six[i]), 0);
    } else {
      ++present;
      EXPECT_EQ(table[static_cast<std::size_t>(slots[i])], six[i]);
      EXPECT_EQ(slots[i] % 27, 26);
    }
  }
  EXPECT_EQ(present, 5u);
  EXPECT_EQ(stranded, 1u);
}

TEST(VectorHashMapRecoveryTest, SaturatedRetryKeepsDuplicateBatchExact) {
  VectorMachine m;
  VectorHashMap map(68);
  ASSERT_EQ(map.capacity(), 137u);  // 135 on the ladder, rounded to a prime
  const WordVec six = gcd_hazard_keys();
  // Every key appears twice in the one batch; the later occurrence carries
  // the value that must win even though the batch is interrupted by a
  // saturation and re-run after the recovery rehash.
  WordVec keys;
  WordVec values;
  for (std::size_t i = 0; i < six.size(); ++i) {
    keys.push_back(six[i]);
    values.push_back(static_cast<Word>(100 + i));
  }
  for (std::size_t i = 0; i < six.size(); ++i) {
    keys.push_back(six[i]);
    values.push_back(static_cast<Word>(200 + i));
  }
  {
    FaultPlan plan(1, "probe@1");
    ScopedFaultPlan scoped(&plan);
    map.upsert_batch(m, keys, values);
    EXPECT_EQ(plan.fired(FaultSite::kProbeSaturation), 1u);
  }
  EXPECT_GT(map.rehash_count(), 0u);
  EXPECT_EQ(map.size(), six.size());
  EXPECT_EQ(map.lookup_batch(m, six, -1),
            (WordVec{200, 201, 202, 203, 204, 205}));
  // Exactly one entry per key: one erase sweep drains the table completely.
  EXPECT_EQ(map.erase_batch(m, six), six.size());
  EXPECT_EQ(map.size(), 0u);
}

TEST(VectorHashMapRecoveryTest, ExhaustedRecoveryLeavesCountsConsistent) {
  VectorMachine m;
  VectorHashMap map(68);
  const WordVec keys = gcd_hazard_keys();
  WordVec values;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    values.push_back(static_cast<Word>(10 + i));
  }
  // Five of the six keys are committed before the failing batch.
  map.upsert_batch(m, std::span(keys).first(5),
                   std::span<const Word>(values).first(5));
  {
    // Every probe check fires: the insert and every recovery rehash fail,
    // each rehash rolls back, and the batch finally throws.
    FaultPlan plan(1, "probe%1");
    ScopedFaultPlan scoped(&plan);
    EXPECT_THROW(map.upsert_batch(m, keys, values), RecoverableError);
  }
  // size() must agree with what lookups actually see — entries that escaped
  // the count would corrupt every later load-factor and erase computation.
  std::size_t present = 0;
  for (const Word k : keys) {
    if (map.contains(m, k)) ++present;
  }
  EXPECT_EQ(present, 5u);
  EXPECT_EQ(map.size(), present);
  // Erasing everything drains the count to zero instead of underflowing it.
  EXPECT_EQ(map.erase_batch(m, keys), present);
  EXPECT_EQ(map.size(), 0u);
  // A clean retry completes the batch exactly once per key.
  map.upsert_batch(m, keys, values);
  EXPECT_EQ(map.size(), keys.size());
  EXPECT_EQ(map.lookup_batch(m, keys, -1), values);
}

// (batches, batch size, key range, scatter order)
using MapSweep = std::tuple<std::size_t, std::size_t, Word, ScatterOrder>;

class VectorHashMapPropertyTest : public ::testing::TestWithParam<MapSweep> {
};

TEST_P(VectorHashMapPropertyTest, MatchesUnorderedMap) {
  const auto [batches, batch_size, range, order] = GetParam();
  Xoshiro256 rng(batches * 31 + batch_size);
  MachineConfig cfg;
  cfg.scatter_order = order;
  VectorMachine m(cfg);
  VectorHashMap map;
  std::unordered_map<Word, Word> reference;

  for (std::size_t b = 0; b < batches; ++b) {
    WordVec keys(batch_size);
    WordVec values(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      keys[i] = rng.in_range(0, range - 1);
      values[i] = rng.in_range(0, 1 << 20);
      reference[keys[i]] = values[i];  // sequential upsert semantics
    }
    map.upsert_batch(m, keys, values);
    ASSERT_EQ(map.size(), reference.size());

    // Spot-check lookups: all reference keys plus some absent ones.
    WordVec queries;
    for (const auto& [k, v] : reference) queries.push_back(k);
    queries.push_back(range + 5);
    const WordVec found = map.lookup_batch(m, queries, -1);
    for (std::size_t i = 0; i + 1 < queries.size(); ++i) {
      ASSERT_EQ(found[i], reference.at(queries[i])) << "key " << queries[i];
    }
    ASSERT_EQ(found.back(), -1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchSweep, VectorHashMapPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 5, 12),
                       ::testing::Values<std::size_t>(1, 17, 120),
                       ::testing::Values<Word>(10, 500, 1 << 28),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kShuffled)));

}  // namespace
}  // namespace folvec::hashing

// Tests for the vectorized read paths: open-addressing lockstep slot finds
// and chaining lockstep frequency counts — the paper's Figure 2b
// case (read-only index vectors may share freely).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "hashing/chain_table.h"
#include "hashing/open_table.h"
#include "support/prng.h"

namespace folvec::hashing {
namespace {

using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

TEST(MultiHashOpenFindTest, FindsPresentRejectsAbsent) {
  VectorMachine m;
  std::vector<Word> table(521, kUnentered);
  const auto keys = random_unique_keys(200, 1 << 30, 5);
  multi_hash_open_insert(m, table, keys, ProbeVariant::kKeyDependent);

  WordVec queries(keys.begin(), keys.begin() + 50);
  const WordVec absent = random_unique_keys(50, 1 << 20, 99);
  for (Word a : absent) {
    if (std::find(keys.begin(), keys.end(), a) == keys.end()) {
      queries.push_back(a);
    }
  }
  const WordVec slots =
      multi_hash_open_find(m, table, queries, ProbeVariant::kKeyDependent);
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_NE(slots[i], -1) << "present key " << queries[i] << " not found";
    EXPECT_EQ(table[static_cast<std::size_t>(slots[i])], queries[i])
        << "present key " << queries[i] << " found at a foreign slot";
  }
  for (std::size_t i = 50; i < queries.size(); ++i) {
    EXPECT_EQ(slots[i], -1) << "absent key " << queries[i] << " found";
  }
}

TEST(MultiHashOpenFindTest, DuplicateQueriesAllowed) {
  VectorMachine m;
  std::vector<Word> table(67, kUnentered);
  multi_hash_open_insert(m, table, WordVec{5, 72}, ProbeVariant::kLinear);
  const WordVec slots = multi_hash_open_find(m, table, WordVec{5, 5, 72, 6},
                                             ProbeVariant::kLinear);
  ASSERT_NE(slots[0], -1);
  ASSERT_NE(slots[2], -1);
  EXPECT_EQ(slots[1], slots[0]);
  EXPECT_EQ(table[static_cast<std::size_t>(slots[0])], 5);
  EXPECT_EQ(table[static_cast<std::size_t>(slots[2])], 72);
  EXPECT_EQ(slots[3], -1);
}

TEST(MultiHashOpenFindTest, FullTableAbsentKeyTerminates) {
  VectorMachine m;
  std::vector<Word> table(67, kUnentered);
  const auto keys = random_unique_keys(67, 1 << 20, 7);
  multi_hash_open_insert(m, table, keys, ProbeVariant::kKeyDependent);
  const Word absent = 1 << 21;
  const std::uint64_t gathers_before =
      m.cost().instructions(vm::OpClass::kVectorGather);
  MultiHashLookupStats stats;
  const WordVec slots = multi_hash_open_find(
      m, table, WordVec{absent}, ProbeVariant::kKeyDependent, &stats);
  EXPECT_EQ(slots[0], -1);
  EXPECT_EQ(stats.sweep_exhausted_lanes, 1u);
  // The probe sequence cycles within the table size, so the sweep stops
  // after one gather per slot of the 67-slot table.
  EXPECT_LE(m.cost().instructions(vm::OpClass::kVectorGather) - gathers_before,
            68u);
}

TEST(MultiHashOpenFindTest, EmptyQueryVector) {
  VectorMachine m;
  std::vector<Word> table(67, kUnentered);
  const WordVec slots =
      multi_hash_open_find(m, table, WordVec{}, ProbeVariant::kKeyDependent);
  EXPECT_TRUE(slots.empty());
}

TEST(ChainMultiCountTest, MatchesScalarCounts) {
  VectorMachine m;
  ChainTable t(13, 256);
  const auto keys = random_keys(200, 40, 11);
  multi_hash_chain_insert(m, t, keys);

  const WordVec queries = m.iota(40);
  const WordVec counts = t.multi_count(m, queries);
  for (Word q = 0; q < 40; ++q) {
    EXPECT_EQ(static_cast<std::size_t>(counts[static_cast<std::size_t>(q)]),
              t.count(q))
        << "key " << q;
  }
}

TEST(ChainMultiCountTest, EmptyTableAndEmptyQueries) {
  VectorMachine m;
  ChainTable t(7, 8);
  EXPECT_TRUE(t.multi_count(m, WordVec{}).empty());
  EXPECT_EQ(t.multi_count(m, WordVec{3, 4}), (WordVec{0, 0}));
}

// Property: the find agrees with the scalar table for every key.
class OpenFindPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(OpenFindPropertyTest, AgreesWithScalarTable) {
  const auto [size, load_pct] = GetParam();
  const auto n = size * static_cast<std::size_t>(load_pct) / 100;
  const auto keys = random_unique_keys(n, 1 << 30, size + n);
  ScalarOpenTable scalar_table(size, ProbeVariant::kKeyDependent);
  for (Word k : keys) scalar_table.insert(k);
  VectorMachine m;
  std::vector<Word> table(size, kUnentered);
  multi_hash_open_insert(m, table, keys, ProbeVariant::kKeyDependent);

  const auto queries = random_keys(300, 1 << 30, size * 31);
  const WordVec slots =
      multi_hash_open_find(m, table, queries, ProbeVariant::kKeyDependent);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(slots[i] != -1, scalar_table.contains(queries[i]))
        << "query " << queries[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    LoadSweep, OpenFindPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(67, 521),
                       ::testing::Values(10, 60, 95)));

}  // namespace
}  // namespace folvec::hashing

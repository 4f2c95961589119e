// Tests for FOL1: unit cases pinned to the paper's examples, and
// parameterized property sweeps of Theorems 1-6 across scatter-order modes
// and duplicate distributions.
#include "fol/fol1.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "flat_layout_testing.h"
#include "fol/invariants.h"
#include "support/faultsim.h"
#include "support/prng.h"

namespace folvec::fol {
namespace {

using vm::MachineConfig;
using vm::ScatterOrder;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

Decomposition decompose(const WordVec& index_vector,
                        ScatterOrder order = ScatterOrder::kForward,
                        std::uint64_t shuffle_seed = 1) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = shuffle_seed;
  VectorMachine m(cfg);
  Word max_index = 0;
  for (Word v : index_vector) max_index = std::max(max_index, v);
  WordVec work(static_cast<std::size_t>(max_index) + 1, 0);
  return fol1_decompose(m, index_vector, work);
}

TEST(Fol1Test, EmptyInputYieldsNoSets) {
  VectorMachine m;
  WordVec work(1, 0);
  EXPECT_EQ(fol1_decompose(m, WordVec{}, work).rounds(), 0u);
}

TEST(Fol1Test, DuplicateFreeInputYieldsSingleSet) {
  // Theorem 3: M = 1 when the input has no duplicates.
  const WordVec v{4, 2, 7, 0, 5};
  const Decomposition d = decompose(v);
  ASSERT_EQ(d.rounds(), 1u);
  EXPECT_EQ(d.sets, (FlatSets{{0, 1, 2, 3, 4}}));
}

TEST(Fol1Test, AllSameYieldsSingletonSets) {
  // Theorem 6's worst case: N lanes to one storage area.
  const WordVec v{3, 3, 3, 3};
  const Decomposition d = decompose(v);
  ASSERT_EQ(d.rounds(), 4u);
  for (const auto& s : d.sets) EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(satisfies_all_theorems(d, v));
}

TEST(Fol1Test, PaperFigure6Pattern) {
  // Figure 6: S = {a,b,a,c,c,a} decomposes into three sets with the
  // multiplicity-3 element 'a' spread across all of them.
  const WordVec v{0, 1, 0, 2, 2, 0};  // a=0, b=1, c=2
  const Decomposition d = decompose(v);
  ASSERT_EQ(d.rounds(), 3u);
  EXPECT_TRUE(satisfies_all_theorems(d, v));
  // Set sizes must be 3, 2, 1: {a,b,c}, {a,c}, {a}.
  EXPECT_EQ(d.sets[0].size(), 3u);
  EXPECT_EQ(d.sets[1].size(), 2u);
  EXPECT_EQ(d.sets[2].size(), 1u);
}

TEST(Fol1Test, ForwardOrderPicksLastLanePerRound) {
  // On a last-write-wins machine, the surviving label of a contested area
  // is the highest lane, so round 0 winners are the last occurrences.
  const WordVec v{5, 5, 5};
  const Decomposition d = decompose(v, ScatterOrder::kForward);
  EXPECT_EQ(d.sets, (FlatSets{{2}, {1}, {0}}));
}

TEST(Fol1Test, ReverseOrderPicksFirstLanePerRound) {
  const WordVec v{5, 5, 5};
  const Decomposition d = decompose(v, ScatterOrder::kReverse);
  EXPECT_EQ(d.sets, (FlatSets{{0}, {1}, {2}}));
}

TEST(Fol1Test, PlainWrapperAllocatesItsOwnWork) {
  const WordVec v{9, 9, 1};
  const Decomposition d = fol1_decompose_plain(v);
  EXPECT_EQ(d.rounds(), 2u);
  EXPECT_TRUE(satisfies_all_theorems(d, v));
}

TEST(Fol1Test, PlainWrapperRejectsNegativeIndices) {
  EXPECT_THROW(fol1_decompose_plain(WordVec{-1, 0}), InternalError);
}

TEST(Fol1Test, RoundOfLaneMatchesDecomposition) {
  const WordVec v{2, 2, 0, 2};
  VectorMachine m;
  WordVec work(3, 0);
  const auto rounds = fol1_round_of_lane(m, v, work);
  ASSERT_EQ(rounds.size(), 4u);
  // Lane 2 (the only reference to area 0) must be in round 0.
  EXPECT_EQ(rounds[2], 0u);
  // The three lanes referencing area 2 must occupy rounds {0,1,2}.
  std::vector<std::size_t> area2{rounds[0], rounds[1], rounds[3]};
  std::sort(area2.begin(), area2.end());
  EXPECT_EQ(area2, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Fol1Test, ElsViolationIsDetectedNotSilent) {
  // Failure injection: the machine stores amalgams on collision. FOL1 must
  // refuse (throw) rather than return a wrong decomposition.
  MachineConfig cfg;
  FaultPlan els(1, "els%1");  // every unmasked scatter violates ELS
  const ScopedFaultPlan inject(&els);
  VectorMachine m(cfg);
  WordVec work(1, 0);
  const WordVec v{0, 0};
  EXPECT_THROW(fol1_decompose(m, v, work), InternalError);
}

TEST(Fol1Test, WorkAreaContentsNeedNoInitialization) {
  // The work area may hold arbitrary garbage; FOL1 overwrites before reading.
  VectorMachine m;
  WordVec work{-77, 123456, -1, 42};
  const WordVec v{0, 3, 0};
  const Decomposition d = fol1_decompose(m, v, work);
  EXPECT_EQ(d.rounds(), 2u);
  EXPECT_TRUE(satisfies_all_theorems(d, v));
}

// ---- property sweeps -------------------------------------------------------

// (n lanes, distinct areas, scatter order, seed)
using SweepParam = std::tuple<std::size_t, std::size_t, ScatterOrder, int>;

class Fol1PropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Fol1PropertyTest, TheoremsHoldOnRandomWorkloads) {
  const auto [n, distinct, order, seed] = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 7919 + n);
  WordVec v(n);
  for (auto& x : v) {
    x = rng.in_range(0, static_cast<Word>(distinct) - 1);
  }
  const Decomposition d =
      decompose(v, order, static_cast<std::uint64_t>(seed));
  EXPECT_TRUE(is_disjoint_cover(d, n));
  EXPECT_TRUE(sets_are_conflict_free(d, v));
  EXPECT_TRUE(sizes_non_increasing(d));
  EXPECT_TRUE(is_minimal(d, v)) << "rounds=" << d.rounds() << " maxmult="
                                << max_multiplicity(v);
  EXPECT_LE(d.rounds(), n);  // Theorem 1 (termination bound)
}

INSTANTIATE_TEST_SUITE_P(
    DuplicateDistributions, Fol1PropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 7, 64, 257),
                       ::testing::Values<std::size_t>(1, 2, 16, 256),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(1, 2, 3)));

class Fol1SkewTest : public ::testing::TestWithParam<int> {};

TEST_P(Fol1SkewTest, HeavilySkewedMultiplicitiesStayMinimal) {
  // One hot area referenced k times among n otherwise-unique lanes.
  const int k = GetParam();
  const std::size_t n = 100;
  WordVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<Word>(i + 1);
  for (int i = 0; i < k; ++i) v[static_cast<std::size_t>(i) * 7 % n] = 0;
  const Decomposition d = decompose(v, ScatterOrder::kShuffled,
                                    static_cast<std::uint64_t>(k));
  EXPECT_TRUE(satisfies_all_theorems(d, v));
  EXPECT_EQ(d.rounds(), static_cast<std::size_t>(k));
}

INSTANTIATE_TEST_SUITE_P(HotSpotMultiplicity, Fol1SkewTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

class Fol1FlatLayoutTest
    : public ::testing::TestWithParam<flat_testing::FlatParam> {};

TEST_P(Fol1FlatLayoutTest, DrainedSetsGroupByOccurrenceOrdinal) {
  const auto [input, order, table] = GetParam();
  const WordVec v = flat_testing::flat_input(input);
  VectorMachine m(flat_testing::flat_config(order, table));
  WordVec work(flat_testing::kAddresses, 0);
  const Decomposition d = fol1_decompose(m, v, work);
  flat_testing::expect_occurrence_drain(d, v,
                                        flat_testing::input_drains(input));
  // The drain charges a load and a store per distinct drained address.
  EXPECT_EQ(m.cost().elements(vm::OpClass::kScalarMem),
            2 * d.drained_last.size());
  EXPECT_TRUE(satisfies_all_theorems(d, v));
}

INSTANTIATE_TEST_SUITE_P(DrainBoundary, Fol1FlatLayoutTest,
                         flat_testing::kFlatParams,
                         flat_testing::flat_param_name);

}  // namespace
}  // namespace folvec::fol

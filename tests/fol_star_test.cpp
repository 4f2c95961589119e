// Tests for FOL*: tuple decomposition across L index vectors, the
// deadlock-avoidance scalar rescue, forced singletons for self-conflicting
// tuples, and property sweeps.
#include "fol/fol_star.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "flat_layout_testing.h"
#include "support/prng.h"

namespace folvec::fol {
namespace {

using vm::MachineConfig;
using vm::ScatterOrder;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

StarDecomposition decompose(const std::vector<WordVec>& lanes,
                            ScatterOrder order = ScatterOrder::kForward,
                            std::uint64_t shuffle_seed = 1) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = shuffle_seed;
  VectorMachine m(cfg);
  Word max_index = 0;
  for (const auto& v : lanes) {
    for (Word x : v) max_index = std::max(max_index, x);
  }
  WordVec work(static_cast<std::size_t>(max_index) + 1, 0);
  return fol_star_decompose(m, lanes, work);
}

/// Checks the FOL* output conditions: disjoint cover of tuple positions and
/// no storage area addressed twice within a set (across all lanes).
void expect_valid(const StarDecomposition& d,
                  const std::vector<WordVec>& lanes) {
  const std::size_t n = lanes.empty() ? 0 : lanes[0].size();
  std::vector<char> seen(n, 0);
  std::size_t total = 0;
  for (std::size_t j = 0; j < d.sets.size(); ++j) {
    const FlatSets::Set set = d.sets[j];
    std::set<Word> areas;
    for (std::size_t pos : set) {
      ASSERT_LT(pos, n);
      EXPECT_FALSE(seen[pos]) << "tuple " << pos << " assigned twice";
      seen[pos] = 1;
      ++total;
      // Singleton sets are allowed to self-conflict (they run alone).
      if (set.size() > 1) {
        for (const auto& lane : lanes) {
          EXPECT_TRUE(areas.insert(lane[pos]).second)
              << "area " << lane[pos] << " contested within set " << j;
        }
      }
    }
  }
  EXPECT_EQ(total, n) << "not every tuple was assigned";
}

TEST(FolStarTest, EmptyInputYieldsNoSets) {
  const std::vector<WordVec> lanes{WordVec{}, WordVec{}};
  EXPECT_EQ(decompose(lanes).rounds(), 0u);
}

TEST(FolStarTest, RequiresAtLeastOneLane) {
  VectorMachine m;
  WordVec work(1, 0);
  const std::vector<WordVec> lanes;
  EXPECT_THROW(fol_star_decompose(m, lanes, work), PreconditionError);
}

TEST(FolStarTest, RequiresEqualLaneLengths) {
  VectorMachine m;
  WordVec work(8, 0);
  const std::vector<WordVec> lanes{WordVec{1, 2}, WordVec{3}};
  EXPECT_THROW(fol_star_decompose(m, lanes, work), PreconditionError);
}

TEST(FolStarTest, DisjointTuplesFormOneSet) {
  const std::vector<WordVec> lanes{WordVec{0, 2, 4}, WordVec{1, 3, 5}};
  const StarDecomposition d = decompose(lanes);
  ASSERT_EQ(d.rounds(), 1u);
  EXPECT_EQ(d.sets[0].size(), 3u);
  expect_valid(d, lanes);
}

TEST(FolStarTest, SingleLaneBehavesLikeFol1) {
  const std::vector<WordVec> lanes{WordVec{7, 7, 3}};
  const StarDecomposition d = decompose(lanes);
  EXPECT_EQ(d.rounds(), 2u);
  expect_valid(d, lanes);
}

TEST(FolStarTest, ChainedRedexPatternSplits) {
  // The Figure 5 situation: tuples (n1,n3) and (n3,n5) share n3.
  const std::vector<WordVec> lanes{WordVec{1, 3}, WordVec{3, 5}};
  const StarDecomposition d = decompose(lanes);
  ASSERT_EQ(d.rounds(), 2u);
  EXPECT_EQ(d.sets[0].size(), 1u);
  EXPECT_EQ(d.sets[1].size(), 1u);
  expect_valid(d, lanes);
}

TEST(FolStarTest, MutualConflictIsRescuedByScalarWrite) {
  // <a,b> and <b,a>: a pure vector pass can deadlock (each tuple's labels
  // overwritten by the other); the scalar rewrite of the last tuple's
  // labels must rescue exactly one tuple per round.
  const std::vector<WordVec> lanes{WordVec{0, 1}, WordVec{1, 0}};
  const StarDecomposition d = decompose(lanes);
  ASSERT_EQ(d.rounds(), 2u);
  EXPECT_EQ(d.sets[0].size(), 1u);
  EXPECT_EQ(d.sets[1].size(), 1u);
  expect_valid(d, lanes);
  EXPECT_EQ(d.forced_singletons, 0u);
  // Round 1 rescues the contested last tuple; round 2's lone leftover is
  // uncontested and must NOT be charged as a rescue.
  EXPECT_EQ(d.scalar_rescues, 1u);
}

TEST(FolStarTest, RescueCountedEvenWhenOtherTuplesSurviveAlongside) {
  // Regression: the old accounting only counted a rescue when the rescued
  // tuple was the round's *sole* survivor. Here round 1's survivors are
  // {T2, T3}: T3 = <2,5> is contested (shares area 2 with T1) and owes its
  // survival to the scalar re-store, so it must count even though T2
  // survived alongside. Round 2 = {T0, T1} is conflict-free (no rescue).
  const std::vector<WordVec> lanes{WordVec{0, 2, 0, 2}, WordVec{1, 3, 4, 5}};
  const StarDecomposition d =
      decompose(lanes, vm::ScatterOrder::kForward);
  expect_valid(d, lanes);
  ASSERT_EQ(d.rounds(), 2u);
  EXPECT_EQ(d.sets, (FlatSets{{2, 3}, {0, 1}}));
  EXPECT_EQ(d.scalar_rescues, 1u);
  EXPECT_EQ(d.forced_singletons, 0u);
}

TEST(FolStarTest, UncontestedSoleSurvivorIsNotChargedAsRescue) {
  // Regression (the flip side): the old accounting charged a rescue
  // whenever a sole survivor happened to be the last tuple, even if nothing
  // contested its addresses. Round 1 survivors are {T1, T2}; round 2's
  // leftover T0 = <0,1> survives alone — but area 0 is no longer contested
  // by anyone, so scalar_rescues must stay 0.
  const std::vector<WordVec> lanes{WordVec{0, 0, 5}, WordVec{1, 2, 6}};
  const StarDecomposition d =
      decompose(lanes, vm::ScatterOrder::kForward);
  expect_valid(d, lanes);
  ASSERT_EQ(d.rounds(), 2u);
  EXPECT_EQ(d.sets, (FlatSets{{1, 2}, {0}}));
  EXPECT_EQ(d.scalar_rescues, 0u);
  EXPECT_EQ(d.forced_singletons, 0u);
}

TEST(FolStarTest, DisjointTuplesReportNoRescues) {
  const std::vector<WordVec> lanes{WordVec{0, 2}, WordVec{1, 3}};
  const StarDecomposition d = decompose(lanes);
  expect_valid(d, lanes);
  ASSERT_EQ(d.rounds(), 1u);
  EXPECT_EQ(d.scalar_rescues, 0u);
  EXPECT_EQ(d.forced_singletons, 0u);
}

TEST(FolStarTest, SelfConflictingTupleBecomesForcedSingleton) {
  // A tuple addressing one area through both lanes can never pass the
  // label check; it must be forced out as a singleton, not spin forever.
  const std::vector<WordVec> lanes{WordVec{4}, WordVec{4}};
  const StarDecomposition d = decompose(lanes);
  ASSERT_EQ(d.rounds(), 1u);
  EXPECT_EQ(d.sets, (FlatSets{{0}}));
  EXPECT_EQ(d.forced_singletons, 1u);
}

TEST(FolStarTest, MixedSelfAndCrossConflicts) {
  const std::vector<WordVec> lanes{WordVec{0, 2, 2}, WordVec{0, 3, 3}};
  // Tuple 0 self-conflicts; tuples 1 and 2 are identical (cross-conflict).
  const StarDecomposition d = decompose(lanes);
  expect_valid(d, lanes);
  EXPECT_GE(d.rounds(), 2u);
}

TEST(FolStarTest, ThreeLanes) {
  const std::vector<WordVec> lanes{WordVec{0, 1}, WordVec{2, 3},
                                   WordVec{4, 2}};
  // Tuples share area 2 across lanes 1 and 2.
  const StarDecomposition d = decompose(lanes);
  ASSERT_EQ(d.rounds(), 2u);
  expect_valid(d, lanes);
}

TEST(FolStarTest, MaxRoundsOneReturnsOnlyFirstSet) {
  // Chained tuples: full decomposition needs many rounds; max_rounds=1 must
  // return just the first conflict-free set and report the rest unassigned.
  VectorMachine m;
  WordVec v1;
  WordVec v2;
  for (Word i = 0; i < 10; ++i) {
    v1.push_back(i);
    v2.push_back(i + 1);
  }
  WordVec work(12, 0);
  const std::vector<WordVec> lanes{v1, v2};
  const StarDecomposition d = fol_star_decompose(m, lanes, work, 1);
  ASSERT_EQ(d.rounds(), 1u);
  EXPECT_EQ(d.sets[0].size() + d.unassigned, 10u);
  EXPECT_GT(d.unassigned, 0u);
  // The returned set must still be conflict-free across both lanes.
  std::set<Word> areas;
  for (std::size_t pos : d.sets[0]) {
    EXPECT_TRUE(areas.insert(v1[pos]).second);
    EXPECT_TRUE(areas.insert(v2[pos]).second);
  }
}

TEST(FolStarTest, RepeatedDecompositionsOnOneMachineAreIdentical) {
  VectorMachine m;
  const std::vector<WordVec> lanes{{0, 1, 2, 3, 1, 0}, {1, 2, 3, 0, 4, 4}};
  WordVec work(5, 0);
  const StarDecomposition first = fol_star_decompose(m, lanes, work);
  const std::uint64_t first_instructions = m.cost().total_instructions();
  expect_valid(first, lanes);
  for (int rep = 1; rep < 3; ++rep) {
    m.cost().reset();
    const StarDecomposition again = fol_star_decompose(m, lanes, work);
    EXPECT_EQ(again.sets, first.sets) << "repeat " << rep;
    EXPECT_EQ(again.scalar_rescues, first.scalar_rescues);
    EXPECT_EQ(again.forced_singletons, first.forced_singletons);
    EXPECT_EQ(m.cost().total_instructions(), first_instructions);
  }
}

TEST(FolStarTest, MaxRoundsZeroAssignsEverything) {
  VectorMachine m;
  WordVec work(4, 0);
  const std::vector<WordVec> lanes{WordVec{0, 0, 0}};
  const StarDecomposition d = fol_star_decompose(m, lanes, work, 0);
  EXPECT_EQ(d.rounds(), 3u);
  EXPECT_EQ(d.unassigned, 0u);
}

// ---- property sweeps -------------------------------------------------------

// (tuples, lanes L, distinct areas, scatter order, seed)
using SweepParam =
    std::tuple<std::size_t, std::size_t, std::size_t, ScatterOrder, int>;

class FolStarPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FolStarPropertyTest, DecompositionIsValidOnRandomWorkloads) {
  const auto [n, l, distinct, order, seed] = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 104729 + n * 31 + l);
  std::vector<WordVec> lanes(l, WordVec(n));
  for (auto& lane : lanes) {
    for (auto& x : lane) {
      x = rng.in_range(0, static_cast<Word>(distinct) - 1);
    }
  }
  const StarDecomposition d =
      decompose(lanes, order, static_cast<std::uint64_t>(seed));
  expect_valid(d, lanes);
  // Termination sanity: every round assigns at least one tuple.
  EXPECT_LE(d.rounds(), n);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTuples, FolStarPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 9, 64),
                       ::testing::Values<std::size_t>(1, 2, 3, 5),
                       ::testing::Values<std::size_t>(2, 17, 128),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(1, 2)));

// ---- flat layout -----------------------------------------------------------

/// The drain's greedy assignment, rebuilt on the host with a hash map: each
/// tuple joins the earliest new set where none of its addresses is used
/// yet; self-conflicting tuples follow as singletons, in tuple order.
struct GreedyReference {
  std::vector<std::vector<std::size_t>> sets;
  std::size_t singletons = 0;
  std::size_t distinct = 0;  // addresses of the tuples placed greedily
};

GreedyReference greedy_reference(std::span<const std::size_t> rest,
                                 const std::vector<WordVec>& lanes) {
  GreedyReference ref;
  std::vector<std::size_t> self_conflicting;
  std::unordered_map<Word, std::size_t> next_free;
  for (std::size_t p : rest) {
    std::set<Word> areas;
    bool self_conflict = false;
    for (const auto& lane : lanes) {
      self_conflict |= !areas.insert(lane[p]).second;
    }
    if (self_conflict) {
      self_conflicting.push_back(p);
      continue;
    }
    std::size_t j = 0;
    for (const auto& lane : lanes) j = std::max(j, next_free[lane[p]]);
    if (j == ref.sets.size()) ref.sets.emplace_back();
    ref.sets[j].push_back(p);
    for (const auto& lane : lanes) next_free[lane[p]] = j + 1;
  }
  for (std::size_t p : self_conflicting) ref.sets.push_back({p});
  ref.singletons = self_conflicting.size();
  ref.distinct = next_free.size();
  return ref;
}

class FolStarFlatLayoutTest
    : public ::testing::TestWithParam<flat_testing::FlatParam> {};

TEST_P(FolStarFlatLayoutTest, DrainedSetsFollowTheGreedyEarliestSet) {
  // Lane 2 pairs each address with its neighbour (a ^ 1), so tuples also
  // conflict across lanes; every 64th tuple addresses one area twice.
  const auto [input, order, table] = GetParam();
  const WordVec v = flat_testing::flat_input(input);
  WordVec partner(v.size());
  for (std::size_t p = 0; p < v.size(); ++p) {
    partner[p] = p % 64 == 0 ? v[p] : (v[p] ^ 1);
  }
  const std::vector<WordVec> lanes{v, partner};
  VectorMachine m(flat_testing::flat_config(order, table));
  WordVec work(flat_testing::kAddresses, 0);
  const StarDecomposition d = fol_star_decompose(m, lanes, work);
  flat_testing::expect_flat_layout(d.sets, v.size());
  expect_valid(d, lanes);
  if (!flat_testing::input_drains(input)) {
    EXPECT_EQ(d.drained_tuples, 0u);
    return;
  }
  ASSERT_GT(d.drained_tuples, 0u);
  const std::size_t from =
      flat_testing::first_drained_set(d.sets, d.drained_tuples);
  ASSERT_LE(from, d.sets.size());
  const std::vector<std::size_t> rest =
      flat_testing::drain_input(d.sets, from, v.size());
  const GreedyReference ref = greedy_reference(rest, lanes);
  EXPECT_EQ(flat_testing::nested_from(d.sets, from), ref.sets);
  EXPECT_GE(d.forced_singletons, ref.singletons);
  // Scalar memory charge: each label round re-stores the last tuple's L
  // labels, and the drain charges a load and a store per distinct address.
  EXPECT_EQ(m.cost().elements(vm::OpClass::kScalarMem),
            from * lanes.size() + 2 * ref.distinct);
}

INSTANTIATE_TEST_SUITE_P(DrainBoundary, FolStarFlatLayoutTest,
                         flat_testing::kFlatParams,
                         flat_testing::flat_param_name);

}  // namespace
}  // namespace folvec::fol

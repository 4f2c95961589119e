// Tests for the order-preserving FOL variant (paper footnote 7): every
// storage area's occurrences must be assigned to sets in increasing lane
// order, making journal replay bit-exact — on any scatter-order machine,
// because only the ordered (VSTX) store is used for labels.
#include "fol/ordered.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "flat_layout_testing.h"
#include "fol/invariants.h"
#include "support/prng.h"

namespace folvec::fol {
namespace {

using vm::MachineConfig;
using vm::ScatterOrder;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

/// For every storage area, the occurrences must land in sets in lane order.
bool occurrences_in_lane_order(const Decomposition& d,
                               std::span<const Word> index_vector) {
  // round_of[lane]
  std::vector<std::size_t> round(index_vector.size());
  for (std::size_t j = 0; j < d.sets.size(); ++j) {
    for (std::size_t lane : d.sets[j]) round[lane] = j;
  }
  std::map<Word, std::size_t> next_round;
  for (std::size_t lane = 0; lane < index_vector.size(); ++lane) {
    const Word area = index_vector[lane];
    if (round[lane] != next_round[area]) return false;
    ++next_round[area];
  }
  return true;
}

Decomposition decompose_ordered(const WordVec& v, ScatterOrder order,
                                std::uint64_t seed = 1) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = seed;
  VectorMachine m(cfg);
  Word max_index = 0;
  for (Word x : v) max_index = std::max(max_index, x);
  WordVec work(static_cast<std::size_t>(max_index) + 1, 0);
  return fol1_decompose_ordered(m, v, work);
}

TEST(OrderedFolTest, AllSameAssignsInLaneOrder) {
  const WordVec v{4, 4, 4};
  const Decomposition d = decompose_ordered(v, ScatterOrder::kShuffled);
  ASSERT_EQ(d.rounds(), 3u);
  EXPECT_EQ(d.sets, (FlatSets{{0}, {1}, {2}}));
}

TEST(OrderedFolTest, SatisfiesPlainTheoremsToo) {
  const WordVec v{0, 1, 0, 2, 2, 0};
  const Decomposition d = decompose_ordered(v, ScatterOrder::kReverse);
  EXPECT_TRUE(satisfies_all_theorems(d, v));
  EXPECT_TRUE(occurrences_in_lane_order(d, v));
}

TEST(OrderedFolTest, EmptyInput) {
  VectorMachine m;
  WordVec work(1, 0);
  EXPECT_EQ(fol1_decompose_ordered(m, WordVec{}, work).rounds(), 0u);
}

TEST(OrderedFolTest, OrderHoldsRegardlessOfMachineScatterMode) {
  const WordVec v{7, 3, 7, 3, 7, 1};
  for (const auto order : {ScatterOrder::kForward, ScatterOrder::kReverse,
                           ScatterOrder::kShuffled}) {
    const Decomposition d = decompose_ordered(v, order);
    EXPECT_TRUE(occurrences_in_lane_order(d, v));
    EXPECT_TRUE(satisfies_all_theorems(d, v));
  }
}

TEST(ReplayJournalTest, LastWritePerCellWins) {
  // A journal where later entries overwrite earlier ones; sequential replay
  // must leave the LAST value in each cell.
  const WordVec targets{0, 1, 0, 2, 0, 1};
  const WordVec values{10, 20, 30, 40, 50, 60};
  MachineConfig cfg;
  cfg.scatter_order = ScatterOrder::kShuffled;  // adversarial ELS machine
  VectorMachine m(cfg);
  std::vector<Word> table(3, -1);
  std::vector<Word> work(3, 0);
  const std::size_t rounds = replay_journal(m, targets, values, work, table);
  EXPECT_EQ(table, (std::vector<Word>{50, 60, 40}));
  EXPECT_EQ(rounds, 3u);  // cell 0 appears three times
}

TEST(ReplayJournalTest, PlainFolWouldGetThisWrong) {
  // Control experiment: the unordered decomposition on a last-wins machine
  // assigns the LAST occurrence to S1, so replaying its sets in order
  // finishes with the FIRST value — the bug footnote 7 exists to fix.
  const WordVec targets{0, 0};
  const WordVec values{10, 20};
  VectorMachine m;  // kForward: last lane wins the label race
  std::vector<Word> table(1, -1);
  std::vector<Word> work(1, 0);
  const Decomposition d = fol1_decompose(m, targets, work);
  for (const auto& set : d.sets) {
    for (std::size_t lane : set) {
      table[static_cast<std::size_t>(targets[lane])] = values[lane];
    }
  }
  EXPECT_EQ(table[0], 10) << "plain FOL replay applied writes backwards";

  // The ordered variant gets it right on the same machine.
  std::vector<Word> table2(1, -1);
  replay_journal(m, targets, values, work, table2);
  EXPECT_EQ(table2[0], 20);
}

// (lanes, areas, scatter order, seed)
using OrderedSweep = std::tuple<std::size_t, std::size_t, ScatterOrder, int>;

class OrderedFolPropertyTest
    : public ::testing::TestWithParam<OrderedSweep> {};

TEST_P(OrderedFolPropertyTest, ReplayMatchesSequentialExecution) {
  const auto [n, areas, order, seed] = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 31 + n);
  WordVec targets(n);
  WordVec values(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = rng.in_range(0, static_cast<Word>(areas) - 1);
    values[i] = rng.in_range(0, 1 << 20);
  }
  // Sequential reference.
  std::vector<Word> expected(areas, -1);
  for (std::size_t i = 0; i < n; ++i) {
    expected[static_cast<std::size_t>(targets[i])] = values[i];
  }

  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = static_cast<std::uint64_t>(seed);
  VectorMachine m(cfg);
  std::vector<Word> table(areas, -1);
  std::vector<Word> work(areas, 0);
  replay_journal(m, targets, values, work, table);
  EXPECT_EQ(table, expected);
}

INSTANTIATE_TEST_SUITE_P(
    JournalSweep, OrderedFolPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 32, 300),
                       ::testing::Values<std::size_t>(1, 5, 64),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(1, 2, 3)));

class OrderedFlatLayoutTest
    : public ::testing::TestWithParam<flat_testing::FlatParam> {};

TEST_P(OrderedFlatLayoutTest, DrainedSetsGroupByOccurrenceOrdinal) {
  const auto [input, order, table] = GetParam();
  const WordVec v = flat_testing::flat_input(input);
  VectorMachine m(flat_testing::flat_config(order, table));
  WordVec work(flat_testing::kAddresses, 0);
  const Decomposition d = fol1_decompose_ordered(m, v, work);
  flat_testing::expect_occurrence_drain(d, v,
                                        flat_testing::input_drains(input));
  // The drain charges a load and a store per distinct drained address.
  EXPECT_EQ(m.cost().elements(vm::OpClass::kScalarMem),
            2 * d.drained_last.size());
  EXPECT_TRUE(satisfies_all_theorems(d, v));
  EXPECT_TRUE(occurrences_in_lane_order(d, v));
}

INSTANTIATE_TEST_SUITE_P(DrainBoundary, OrderedFlatLayoutTest,
                         flat_testing::kFlatParams,
                         flat_testing::flat_param_name);

}  // namespace
}  // namespace folvec::fol

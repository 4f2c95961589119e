// Tests for the theorem-checker helpers themselves (negative cases: each
// checker must reject hand-broken decompositions) and for overwrite-and-
// check, the simplified FOL of paper Section 3.2's closing remark: unique
// values serve as their own labels, so one fused scatter_gather_eq inside a
// data-race conflict window stores them and reports which stores survived.
#include "fol/invariants.h"

#include <gtest/gtest.h>

#include "fol/fol1.h"
#include "vm/checker.h"
#include "vm/machine.h"

namespace folvec::fol {
namespace {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

Decomposition make(FlatSets sets) {
  Decomposition d;
  d.sets = std::move(sets);
  return d;
}

TEST(InvariantsTest, AcceptsAValidDecomposition) {
  const WordVec v{5, 5, 9};
  const Decomposition d = make({{0, 2}, {1}});
  EXPECT_TRUE(is_disjoint_cover(d, 3));
  EXPECT_TRUE(sets_are_conflict_free(d, v));
  EXPECT_TRUE(sizes_non_increasing(d));
  EXPECT_TRUE(is_minimal(d, v));
  EXPECT_TRUE(satisfies_all_theorems(d, v));
}

TEST(InvariantsTest, DetectsMissingLane) {
  const Decomposition d = make({{0, 2}});  // lane 1 missing
  EXPECT_FALSE(is_disjoint_cover(d, 3));
}

TEST(InvariantsTest, DetectsDoubleAssignedLane) {
  const Decomposition d = make({{0, 1}, {1, 2}});
  EXPECT_FALSE(is_disjoint_cover(d, 3));
}

TEST(InvariantsTest, DetectsOutOfRangeLane) {
  const Decomposition d = make({{0, 7}});
  EXPECT_FALSE(is_disjoint_cover(d, 3));
  EXPECT_FALSE(sets_are_conflict_free(d, WordVec{1, 2, 3}));
}

TEST(InvariantsTest, DetectsConflictWithinASet) {
  const WordVec v{5, 5, 9};
  const Decomposition d = make({{0, 1, 2}});  // lanes 0,1 share area 5
  EXPECT_FALSE(sets_are_conflict_free(d, v));
}

TEST(InvariantsTest, DetectsGrowingSets) {
  const Decomposition d = make({{0}, {1, 2}});
  EXPECT_FALSE(sizes_non_increasing(d));
}

TEST(InvariantsTest, DetectsNonMinimalDecomposition) {
  const WordVec v{1, 2, 3};  // no duplicates: minimum is one set
  const Decomposition d = make({{0, 1}, {2}});
  EXPECT_FALSE(is_minimal(d, v));
  EXPECT_TRUE(sets_are_conflict_free(d, v));  // valid, just not minimal
}

TEST(InvariantsTest, MaxMultiplicityCounts) {
  EXPECT_EQ(max_multiplicity(WordVec{}), 0u);
  EXPECT_EQ(max_multiplicity(WordVec{4}), 1u);
  EXPECT_EQ(max_multiplicity(WordVec{4, 4, 2, 4, 2}), 3u);
}

/// 3000 lanes over 4 addresses: round one keeps 4, the drain takes the
/// remaining 2996 in 749 sets.
Decomposition drained_decomposition(WordVec& v) {
  v.resize(3000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<Word>(i % 4);
  VectorMachine m;
  WordVec work(4, 0);
  return fol1_decompose(m, v, work);
}

TEST(InvariantsTest, DrainedTailOfARealDrainIsConsistent) {
  WordVec v;
  const Decomposition d = drained_decomposition(v);
  ASSERT_EQ(d.drained_lanes, 2996u);
  EXPECT_EQ(d.drained_from, 1u);
  EXPECT_EQ(d.drained_last.size(), 4u);
  EXPECT_TRUE(drained_tail_consistent(d, v));
}

TEST(InvariantsTest, AcceptsAnUndrainedDecompositionWithNoLinks) {
  const WordVec v{5, 5, 9};
  Decomposition d = make({{0, 2}, {1}});
  EXPECT_TRUE(drained_tail_consistent(d, v));
  d.drained_pred = {-1};  // links without a drain
  EXPECT_FALSE(drained_tail_consistent(d, v));
}

TEST(InvariantsTest, DetectsCorruptedDrainedPred) {
  WordVec v;
  const Decomposition good = drained_decomposition(v);
  // The first drained set's lanes have no predecessor.
  Decomposition d = good;
  d.drained_pred[0] = 1;
  EXPECT_FALSE(drained_tail_consistent(d, v));
  // A later lane pointing at the previous set, but at another address.
  d = good;
  d.drained_pred[4] = d.drained_pred[5];
  EXPECT_FALSE(drained_tail_consistent(d, v));
  // A later lane pointing two sets back, at the same address.
  d = good;
  d.drained_pred[8] = d.drained_pred[4];
  EXPECT_FALSE(drained_tail_consistent(d, v));
}

TEST(InvariantsTest, DetectsCorruptedDrainedLast) {
  WordVec v;
  const Decomposition good = drained_decomposition(v);
  // An address named twice, another not at all.
  Decomposition d = good;
  d.drained_last[1] = d.drained_last[0];
  EXPECT_FALSE(drained_tail_consistent(d, v));
  // An address named at a lane before its last set.
  d = good;
  d.drained_last[0] -= 4;
  EXPECT_FALSE(drained_tail_consistent(d, v));
  // An address missing.
  d = good;
  d.drained_last.pop_back();
  EXPECT_FALSE(drained_tail_consistent(d, v));
}

TEST(OverwriteCheckTest, UniqueValuesAllSurvive) {
  VectorMachine m;
  std::vector<Word> table(4, -1);
  const vm::ConflictWindow window(m, table, vm::WindowKind::kDataRace,
                                  "overwrite-and-check");
  const Mask ok =
      m.scatter_gather_eq(table, WordVec{0, 1, 3}, WordVec{10, 11, 13});
  EXPECT_EQ(ok, (Mask{1, 1, 1}));
  EXPECT_EQ(table, (std::vector<Word>{10, 11, -1, 13}));
}

TEST(OverwriteCheckTest, ExactlyOneSurvivorPerContestedSlot) {
  VectorMachine m;
  std::vector<Word> table(2, -1);
  const vm::ConflictWindow window(m, table, vm::WindowKind::kDataRace,
                                  "overwrite-and-check");
  const Mask ok = m.scatter_gather_eq(table, WordVec{0, 0, 0, 1},
                                      WordVec{10, 11, 12, 99});
  EXPECT_EQ(m.count_true(ok), 2u);  // one winner at slot 0, plus lane 3
  EXPECT_EQ(ok[3], 1);
  EXPECT_TRUE(table[0] == 10 || table[0] == 11 || table[0] == 12);
}

TEST(OverwriteCheckTest, MaskedVariantSkipsInactiveLanes) {
  VectorMachine m;
  std::vector<Word> table(2, -1);
  const vm::ConflictWindow window(m, table, vm::WindowKind::kDataRace,
                                  "overwrite-and-check");
  const Mask ok = m.scatter_gather_eq_masked(
      table, WordVec{0, 0, 1}, WordVec{10, 11, 12}, Mask{1, 0, 1});
  EXPECT_EQ(ok, (Mask{1, 0, 1}));  // lane 1 inactive: no store, no claim
  EXPECT_EQ(table[0], 10);
  EXPECT_EQ(table[1], 12);
}

TEST(OverwriteCheckTest, DuplicateValuesBothAppearToSurvive) {
  // The documented caveat of the simplification: two lanes writing the
  // same value to the same slot both pass the check.
  VectorMachine m;
  std::vector<Word> table(1, -1);
  const vm::ConflictWindow window(m, table, vm::WindowKind::kDataRace,
                                  "overwrite-and-check");
  const Mask ok = m.scatter_gather_eq(table, WordVec{0, 0}, WordVec{7, 7});
  EXPECT_EQ(m.count_true(ok), 2u);
}

}  // namespace
}  // namespace folvec::fol

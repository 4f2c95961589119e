// Tests for the sorting substrates: scalar/vector address-calculation sort
// (Figures 11/12), scalar/vector distribution counting sort, and the
// vectorized prefix scan they build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "sorting/address_calc.h"
#include "sorting/dist_count.h"
#include "sorting/scan.h"
#include "support/prng.h"

namespace folvec::sorting {
namespace {

using vm::MachineConfig;
using vm::ScatterOrder;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

// ---- scan -------------------------------------------------------------------

TEST(ScanTest, ScalarScanMatchesStd) {
  WordVec v{3, 1, 4, 1, 5, 9, 2, 6};
  WordVec expected(v.size());
  std::partial_sum(v.begin(), v.end(), expected.begin());
  inclusive_scan_scalar(v);
  EXPECT_EQ(v, expected);
}

TEST(ScanTest, VectorScanSmallFallsBackToScalar) {
  VectorMachine m;
  WordVec v{5, -2, 7};
  inclusive_scan_vector(m, v);
  EXPECT_EQ(v, (WordVec{5, 3, 10}));
}

TEST(ScanTest, VectorScanLargeMatchesStd) {
  VectorMachine m;
  Xoshiro256 rng(17);
  WordVec v(4096 + 37);  // exercises the scalar tail
  for (auto& x : v) x = rng.in_range(-5, 5);
  WordVec expected(v.size());
  std::partial_sum(v.begin(), v.end(), expected.begin());
  inclusive_scan_vector(m, v);
  EXPECT_EQ(v, expected);
}

TEST(ScanTest, VectorScanExactBlockMultiple) {
  VectorMachine m;
  WordVec v(512 * 8, 1);
  inclusive_scan_vector(m, v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i], static_cast<Word>(i + 1));
  }
}

TEST(ScanTest, EmptyIsNoop) {
  VectorMachine m;
  WordVec v;
  inclusive_scan_vector(m, v);
  inclusive_scan_scalar(v);
  EXPECT_TRUE(v.empty());
}

// ---- address calculation sort --------------------------------------------------

constexpr Word kVmax = 1 << 20;

TEST(AddressCalcScalarTest, SortsRandomData) {
  auto data = random_keys(100, kVmax, 1);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  address_calc_sort_scalar(data, kVmax);
  EXPECT_EQ(data, expected);
}

TEST(AddressCalcScalarTest, PaperFigure13Example) {
  // A = {38, 11, 42, 39}, range [0, 100).
  WordVec data{38, 11, 42, 39};
  address_calc_sort_scalar(data, 100);
  EXPECT_EQ(data, (WordVec{11, 38, 39, 42}));
}

TEST(AddressCalcScalarTest, EdgeShapes) {
  for (auto data : {WordVec{}, WordVec{7}, WordVec{5, 5, 5, 5},
                    WordVec{9, 8, 7, 6, 5}, WordVec{1, 2, 3, 4}}) {
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    address_calc_sort_scalar(data, 10);
    EXPECT_EQ(data, expected);
  }
}

TEST(AddressCalcScalarTest, RejectsOutOfRange) {
  WordVec bad{5, 100};
  EXPECT_THROW(address_calc_sort_scalar(bad, 100), PreconditionError);
  WordVec neg{-1};
  EXPECT_THROW(address_calc_sort_scalar(neg, 100), PreconditionError);
}

TEST(AddressCalcVectorTest, SortsRandomData) {
  VectorMachine m;
  auto data = random_keys(100, kVmax, 2);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  address_calc_sort_vector(m, data, kVmax);
  EXPECT_EQ(data, expected);
}

TEST(AddressCalcVectorTest, PaperFigure13Example) {
  VectorMachine m;
  WordVec data{38, 11, 42, 39};
  const AddressCalcStats stats = address_calc_sort_vector(m, data, 100);
  EXPECT_EQ(data, (WordVec{11, 38, 39, 42}));
  EXPECT_GE(stats.outer_passes, 1u);
}

TEST(AddressCalcVectorTest, AllEqualValues) {
  // Every lane collides at the same slot: maximal sequentiality.
  VectorMachine m;
  WordVec data(50, 7);
  const AddressCalcStats stats = address_calc_sort_vector(m, data, 100);
  EXPECT_EQ(data, WordVec(50, 7));
  EXPECT_GE(stats.outer_passes, 2u);
}

TEST(AddressCalcVectorTest, AlreadySortedAndReversed) {
  VectorMachine m;
  WordVec fwd(64);
  std::iota(fwd.begin(), fwd.end(), Word{0});
  WordVec rev(fwd.rbegin(), fwd.rend());
  WordVec fwd_copy = fwd;
  address_calc_sort_vector(m, fwd_copy, 64);
  EXPECT_EQ(fwd_copy, fwd);
  address_calc_sort_vector(m, rev, 64);
  EXPECT_EQ(rev, fwd);
}

TEST(AddressCalcVectorTest, BoundaryValues) {
  VectorMachine m;
  WordVec data{0, 99, 0, 99, 50};
  address_calc_sort_vector(m, data, 100);
  EXPECT_EQ(data, (WordVec{0, 0, 50, 99, 99}));
}

TEST(AddressCalcVectorTest, RepeatedSortsOnOneMachineAgree) {
  VectorMachine m;
  const WordVec input = random_keys(120, kVmax, 6);
  WordVec expected = input;
  std::sort(expected.begin(), expected.end());
  WordVec first = input;
  const AddressCalcStats s1 = address_calc_sort_vector(m, first, kVmax);
  const std::uint64_t first_instructions = m.cost().total_instructions();
  EXPECT_EQ(first, expected);
  m.cost().reset();
  WordVec second = input;
  const AddressCalcStats s2 = address_calc_sort_vector(m, second, kVmax);
  EXPECT_EQ(second, expected);
  EXPECT_EQ(s2.outer_passes, s1.outer_passes);
  EXPECT_EQ(s2.probe_steps, s1.probe_steps);
  EXPECT_EQ(s2.shift_steps, s1.shift_steps);
  EXPECT_EQ(m.cost().total_instructions(), first_instructions);
}

// ---- distribution counting sort -------------------------------------------------

TEST(DistCountScalarTest, SortsRandomData) {
  auto data = random_keys(200, 100, 3);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  dist_count_sort_scalar(data, 100);
  EXPECT_EQ(data, expected);
}

TEST(DistCountScalarTest, EdgeShapes) {
  for (auto data : {WordVec{}, WordVec{0}, WordVec{4, 4, 4},
                    WordVec{9, 0, 9, 0}}) {
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    dist_count_sort_scalar(data, 10);
    EXPECT_EQ(data, expected);
  }
}

TEST(DistCountVectorTest, SortsRandomData) {
  VectorMachine m;
  auto data = random_keys(200, 100, 4);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  const DistCountStats stats = dist_count_sort_vector(m, data, 100);
  EXPECT_EQ(data, expected);
  EXPECT_GE(stats.fol_rounds, 1u);
}

TEST(DistCountVectorTest, FolRoundsEqualMaxMultiplicity) {
  VectorMachine m;
  WordVec data{5, 5, 5, 1, 2, 2};
  const DistCountStats stats = dist_count_sort_vector(m, data, 10);
  EXPECT_EQ(data, (WordVec{1, 2, 2, 5, 5, 5}));
  EXPECT_EQ(stats.fol_rounds, 3u);
}

TEST(DistCountVectorTest, LargeRangeSmallN) {
  // The paper's Table 1 regime: range 2^16 dominated by histogram setup.
  VectorMachine m;
  auto data = random_keys(64, 1 << 16, 5);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  dist_count_sort_vector(m, data, 1 << 16);
  EXPECT_EQ(data, expected);
}

TEST(DistCountVectorTest, RepeatedSortsOnOneMachineAgree) {
  VectorMachine m;
  const WordVec input = random_keys(150, 40, 8);
  WordVec expected = input;
  std::sort(expected.begin(), expected.end());
  WordVec first = input;
  const DistCountStats s1 = dist_count_sort_vector(m, first, 40);
  const std::uint64_t first_instructions = m.cost().total_instructions();
  EXPECT_EQ(first, expected);
  m.cost().reset();
  WordVec second = input;
  const DistCountStats s2 = dist_count_sort_vector(m, second, 40);
  EXPECT_EQ(second, expected);
  EXPECT_EQ(s2.fol_rounds, s1.fol_rounds);
  EXPECT_EQ(m.cost().total_instructions(), first_instructions);
}

TEST(DistCountVectorTest, RejectsOutOfRange) {
  VectorMachine m;
  WordVec bad{3, 10};
  EXPECT_THROW(dist_count_sort_vector(m, bad, 10), PreconditionError);
}

// ---- property sweeps ---------------------------------------------------------

// (n, value range, scatter order, seed)
using SortSweep = std::tuple<std::size_t, Word, ScatterOrder, int>;

class SortPropertyTest : public ::testing::TestWithParam<SortSweep> {
 protected:
  WordVec make_data() const {
    const auto [n, range, order, seed] = GetParam();
    return random_keys(n, range,
                       static_cast<std::uint64_t>(seed) * 31 + n);
  }
  VectorMachine make_machine() const {
    MachineConfig cfg;
    cfg.scatter_order = std::get<2>(GetParam());
    return VectorMachine(cfg);
  }
};

TEST_P(SortPropertyTest, AddressCalcVectorMatchesStdSort) {
  auto data = make_data();
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  VectorMachine m = make_machine();
  address_calc_sort_vector(m, data, std::get<1>(GetParam()));
  EXPECT_EQ(data, expected);
}

TEST_P(SortPropertyTest, AddressCalcScalarMatchesStdSort) {
  auto data = make_data();
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  address_calc_sort_scalar(data, std::get<1>(GetParam()));
  EXPECT_EQ(data, expected);
}

TEST_P(SortPropertyTest, DistCountVectorMatchesStdSort) {
  auto data = make_data();
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  VectorMachine m = make_machine();
  dist_count_sort_vector(m, data, std::get<1>(GetParam()));
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, SortPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 63, 256, 1000),
                       ::testing::Values<Word>(2, 10, 4096, 1 << 20),
                       ::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace folvec::sorting

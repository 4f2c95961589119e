// Shared inputs and checks for the flat set layout of FOL decompositions
// (fol1_test, ordered_fol_test, fol_star_test). The inputs straddle the
// adaptive drain's trigger; the checks pin the layout itself (the lanes are
// a permutation, the end offsets strictly increase) and compare the drained
// sets and their links against a host reference.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "fol/fol1.h"
#include "support/prng.h"
#include "vm/machine.h"

namespace folvec::fol::flat_testing {

using vm::ScatterOrder;
using vm::SimdLevel;
using vm::Word;
using vm::WordVec;

enum class FlatInput {
  kAllDistinct,     // 4096 distinct addresses: one set, no drain
  kOneAddress2048,  // round 1 leaves 2047 lanes: below the drain trigger
  kOneAddress2049,  // round 1 leaves 2048 lanes: drains
  kZipf,            // Zipf(1.1): 2^16 lanes over 2^17 addresses, drains
};

/// The work area every input fits in.
inline constexpr std::size_t kAddresses = std::size_t{1} << 17;

/// One index vector per input; every address is below kAddresses.
inline WordVec flat_input(FlatInput input) {
  switch (input) {
    case FlatInput::kAllDistinct: {
      WordVec v(4096);
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<Word>((i * 40503) % kAddresses);
      }
      return v;
    }
    case FlatInput::kOneAddress2048:
      return WordVec(2048, 5);
    case FlatInput::kOneAddress2049:
      return WordVec(2049, 5);
    case FlatInput::kZipf:
      break;
  }
  std::vector<double> cdf(kAddresses);
  double sum = 0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf[i] = sum;
  }
  Xoshiro256 rng(11);
  WordVec v(std::size_t{1} << 16);
  for (Word& a : v) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.unit() * sum) -
        cdf.begin());
    // An odd multiplier permutes [0, 2^17): hot ranks scatter over the area.
    a = static_cast<Word>((std::min(rank, kAddresses - 1) * 2654435761) %
                          kAddresses);
  }
  return v;
}

inline bool input_drains(FlatInput input) {
  return input == FlatInput::kOneAddress2049 || input == FlatInput::kZipf;
}

// (input, scatter order, kernel table: kScalar or the widest, kAuto)
using FlatParam = std::tuple<FlatInput, ScatterOrder, SimdLevel>;

inline const auto kFlatParams = ::testing::Combine(
    ::testing::Values(FlatInput::kAllDistinct, FlatInput::kOneAddress2048,
                      FlatInput::kOneAddress2049, FlatInput::kZipf),
    ::testing::Values(ScatterOrder::kForward, ScatterOrder::kReverse,
                      ScatterOrder::kShuffled),
    ::testing::Values(SimdLevel::kScalar, SimdLevel::kAuto));

inline std::string flat_param_name(
    const ::testing::TestParamInfo<FlatParam>& info) {
  const auto [input, order, table] = info.param;
  const char* inputs[] = {"AllDistinct", "OneAddress2048", "OneAddress2049",
                          "Zipf"};
  const char* orders[] = {"Forward", "Reverse", "Shuffled"};
  return std::string(inputs[static_cast<int>(input)]) + "_" +
         orders[static_cast<int>(order)] +
         (table == SimdLevel::kScalar ? "_Scalar" : "_Widest");
}

inline vm::MachineConfig flat_config(ScatterOrder order, SimdLevel table) {
  vm::MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = 7;
  cfg.backend = table == SimdLevel::kScalar ? vm::BackendKind::kSerial
                                            : vm::BackendKind::kSimd;
  cfg.simd_level = table;
  return cfg;
}

/// The lanes are a permutation of 0..n-1, the end offsets strictly increase
/// up to n, and every set reads as its slice of the flat lane array.
inline void expect_flat_layout(const FlatSets& sets, std::size_t n) {
  ASSERT_EQ(sets.lanes().size(), n);
  std::vector<char> seen(n, 0);
  for (std::size_t lane : sets.lanes()) {
    ASSERT_LT(lane, n);
    EXPECT_FALSE(seen[lane]) << "lane " << lane << " assigned twice";
    seen[lane] = 1;
  }
  ASSERT_EQ(sets.ends().size(), sets.size());
  std::size_t prev = 0;
  for (std::size_t end : sets.ends()) {
    EXPECT_GT(end, prev);
    prev = end;
  }
  EXPECT_EQ(prev, n);
  std::size_t j = 0;
  for (const FlatSets::Set set : sets) {
    EXPECT_EQ(set.data(), sets.lanes().data() + sets.offset(j));
    EXPECT_EQ(set.size(), sets[j].size());
    ++j;
  }
  EXPECT_EQ(j, sets.size());
}

/// The first of the sets that hold the last `drained` lanes, or sets.size()
/// + 1 when no set boundary sits there.
inline std::size_t first_drained_set(const FlatSets& sets,
                                     std::size_t drained) {
  const std::size_t rounds_lanes = sets.lanes().size() - drained;
  for (std::size_t j = 0; j <= sets.size(); ++j) {
    if (sets.offset(j) == rounds_lanes) return j;
  }
  return sets.size() + 1;
}

/// The lanes the drain received, in its order: those the first `from` sets
/// leave unassigned, in lane order (every round's partition is stable).
inline std::vector<std::size_t> drain_input(const FlatSets& sets,
                                            std::size_t from, std::size_t n) {
  std::vector<char> assigned(n, 0);
  for (std::size_t lane : sets.lanes().first(sets.offset(from))) {
    assigned[lane] = 1;
  }
  std::vector<std::size_t> rest;
  for (std::size_t lane = 0; lane < n; ++lane) {
    if (!assigned[lane]) rest.push_back(lane);
  }
  return rest;
}

/// The FOL1 drain's result, rebuilt on the host from nested vectors.
struct OccurrenceReference {
  std::vector<std::vector<std::size_t>> sets;
  std::vector<Word> pred;
  std::vector<Word> last;
};

/// Groups the drained lanes by occurrence ordinal (the j-th occurrence of an
/// address joins set j) and links them: pred names the same address's lane
/// one set earlier (flat, in set order), last each address's lane in its
/// last set, ordered as the first set.
inline OccurrenceReference occurrence_reference(
    std::span<const std::size_t> rest, std::span<const Word> idx) {
  OccurrenceReference ref;
  std::unordered_map<Word, std::size_t> count;
  for (std::size_t lane : rest) {
    const std::size_t j = count[idx[lane]]++;
    if (j == ref.sets.size()) ref.sets.emplace_back();
    ref.sets[j].push_back(lane);
  }
  std::unordered_map<Word, Word> latest;
  Word f = 0;
  for (std::size_t j = 0; j < ref.sets.size(); ++j) {
    for (std::size_t lane : ref.sets[j]) {
      ref.pred.push_back(j == 0 ? -1 : latest.at(idx[lane]));
      latest[idx[lane]] = f++;
    }
  }
  for (std::size_t lane : ref.sets.front()) {
    ref.last.push_back(latest.at(idx[lane]));
  }
  return ref;
}

/// The sets from `from` on, as nested vectors.
inline std::vector<std::vector<std::size_t>> nested_from(const FlatSets& sets,
                                                         std::size_t from) {
  std::vector<std::vector<std::size_t>> nested;
  for (std::size_t j = from; j < sets.size(); ++j) {
    nested.emplace_back(sets[j].begin(), sets[j].end());
  }
  return nested;
}

/// Checks a FOL1 decomposition (plain or ordered) of `idx`: its flat layout
/// and, when it drained, its drained sets and links against the occurrence
/// reference.
inline void expect_occurrence_drain(const Decomposition& d,
                                    std::span<const Word> idx, bool drains) {
  expect_flat_layout(d.sets, idx.size());
  if (!drains) {
    EXPECT_EQ(d.drained_lanes, 0u);
    EXPECT_EQ(d.drained_from, 0u);
    EXPECT_TRUE(d.drained_pred.empty());
    EXPECT_TRUE(d.drained_last.empty());
    return;
  }
  ASSERT_GT(d.drained_lanes, 0u);
  ASSERT_EQ(first_drained_set(d.sets, d.drained_lanes), d.drained_from);
  const std::vector<std::size_t> rest =
      drain_input(d.sets, d.drained_from, idx.size());
  ASSERT_EQ(rest.size(), d.drained_lanes);
  const OccurrenceReference ref = occurrence_reference(rest, idx);
  EXPECT_EQ(nested_from(d.sets, d.drained_from), ref.sets);
  EXPECT_EQ(d.drained_pred, ref.pred);
  EXPECT_EQ(d.drained_last, ref.last);
}

}  // namespace folvec::fol::flat_testing

#include "sorting/radix.h"

#include <vector>

#include "fol/ordered.h"
#include "sorting/scan.h"
#include "support/require.h"
#include "telemetry/metrics.h"

namespace folvec::sorting {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

namespace {

void check_input(std::span<const Word> data, int bits_per_digit) {
  FOLVEC_REQUIRE(bits_per_digit >= 1 && bits_per_digit <= 16,
                 "bits_per_digit must be in [1, 16]");
  for (Word x : data) {
    FOLVEC_REQUIRE(x >= 0, "radix sort needs non-negative data");
  }
}

int passes_needed(std::span<const Word> data, int bits_per_digit) {
  Word max_val = 0;
  for (Word x : data) max_val = std::max(max_val, x);
  int bits = 0;
  while ((max_val >> bits) != 0) ++bits;
  return (bits + bits_per_digit - 1) / bits_per_digit;
}

}  // namespace

void radix_sort_scalar(std::span<Word> data, int bits_per_digit,
                       vm::CostAccumulator* cost) {
  check_input(data, bits_per_digit);
  if (data.size() < 2) return;
  vm::ScalarCost sc(cost);
  const auto radix = std::size_t{1} << bits_per_digit;
  const auto mask = static_cast<Word>(radix - 1);
  const int passes = passes_needed(data, bits_per_digit);

  std::vector<Word> out(data.size());
  std::vector<Word> count(radix);
  for (int p = 0; p < passes; ++p) {
    const int shift = p * bits_per_digit;
    std::fill(count.begin(), count.end(), 0);
    sc.mem(radix);
    sc.branch(radix);
    for (Word x : data) {
      ++count[static_cast<std::size_t>((x >> shift) & mask)];
      sc.alu(3);
      sc.mem(3);
      sc.branch(1);
    }
    inclusive_scan_scalar(count, cost);
    for (std::size_t j = data.size(); j-- > 0;) {
      const auto d = static_cast<std::size_t>((data[j] >> shift) & mask);
      out[static_cast<std::size_t>(--count[d])] = data[j];
      sc.alu(4);
      sc.mem(4);
      sc.branch(1);
    }
    for (std::size_t j = 0; j < data.size(); ++j) {
      data[j] = out[j];
      sc.mem(2);
      sc.branch(1);
    }
  }
}

RadixStats radix_sort_vector(VectorMachine& m, std::span<Word> data,
                             int bits_per_digit) {
  RadixStats stats;
  check_input(data, bits_per_digit);
  if (data.size() < 2) return stats;
  const auto radix = std::size_t{1} << bits_per_digit;
  const auto mask = static_cast<Word>(radix - 1);
  const int passes = passes_needed(data, bits_per_digit);
  const vm::AlgoSpan span(m, "sorting.radix");
  telemetry::count("sorting.radix.calls");

  std::vector<Word> count(radix);
  std::vector<Word> base(radix);
  std::vector<Word> work(radix, 0);
  std::vector<Word> out(data.size());
  WordVec vals = m.copy(data);
  WordVec shifted;
  WordVec digits;

  for (int p = 0; p < passes; ++p) {
    const vm::AlgoSpan pass_span(m, "digit_pass",
                                 static_cast<std::size_t>(p));
    ++stats.digit_passes;
    const int shift = p * bits_per_digit;
    m.shr_scalar_into(shifted, vals, shift);
    m.and_scalar_into(digits, shifted, mask);

    // Stable decomposition: occurrence j of every digit lands in set j.
    const fol::Decomposition dec = fol::fol1_decompose_ordered(m, digits, work);
    stats.fol_rounds += dec.rounds();

    // Histogram per set (conflict-free within a set), then base[d] =
    // number of elements with a smaller digit (exclusive scan).
    m.fill(count, 0);
    std::vector<WordVec> set_digits(dec.rounds());
    std::vector<WordVec> set_vals(dec.rounds());
    for (std::size_t j = 0; j < dec.rounds(); ++j) {
      set_digits[j].reserve(dec.sets[j].size());
      set_vals[j].reserve(dec.sets[j].size());
      for (std::size_t lane : dec.sets[j]) {
        set_digits[j].push_back(digits[lane]);
        set_vals[j].push_back(vals[lane]);
      }
      const WordVec c = m.gather(count, set_digits[j]);
      m.scatter(count, set_digits[j], m.add_scalar(c, 1));
    }
    m.store(base, 0, m.load(count, 0, radix));
    inclusive_scan_vector(m, base);
    const WordVec base_v = m.sub(m.load(base, 0, radix), m.load(count, 0, radix));
    m.store(base, 0, base_v);

    // Stable placement: set j's lane with digit d goes to base[d] + j.
    for (std::size_t j = 0; j < dec.rounds(); ++j) {
      const WordVec pos = m.add_scalar(m.gather(base, set_digits[j]),
                                       static_cast<Word>(j));
      m.scatter(out, pos, set_vals[j]);
    }
    vals = m.load(out, 0, out.size());
  }
  m.retire_work(work);
  m.store(data, 0, vals);
  telemetry::count("sorting.radix.fol_rounds", stats.fol_rounds);
  telemetry::count("sorting.radix.digit_passes", stats.digit_passes);
  return stats;
}

}  // namespace folvec::sorting

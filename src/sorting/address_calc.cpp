#include "sorting/address_calc.h"

#include <limits>
#include <utility>

#include "support/require.h"
#include "telemetry/metrics.h"
#include "vm/checker.h"

namespace folvec::sorting {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

namespace {

/// Order-preserving spreading function: floor(2n * x / vmax), mapping
/// [0, vmax) onto [0, 2n) (the first two thirds of the 3n-slot work array).
Word spread(Word x, Word n, Word vmax) {
  return 2 * n * x / vmax;
}

void check_input(std::span<const Word> data, Word vmax) {
  FOLVEC_REQUIRE(vmax > 0, "vmax must be positive");
  const auto n = static_cast<Word>(data.size());
  FOLVEC_REQUIRE(n == 0 || vmax <= std::numeric_limits<Word>::max() / (2 * n),
                 "2n * vmax must not overflow the machine word");
  for (Word x : data) {
    FOLVEC_REQUIRE(x >= 0 && x < vmax, "data values must lie in [0, vmax)");
  }
}

}  // namespace

void address_calc_sort_scalar(std::span<Word> data, Word vmax,
                              vm::CostAccumulator* cost) {
  check_input(data, vmax);
  const auto n = static_cast<Word>(data.size());
  if (n == 0) return;
  vm::ScalarCost sc(cost);
  const Word unentered = vmax;  // greater than any datum
  std::vector<Word> c(static_cast<std::size_t>(3 * n), unentered);
  sc.mem(c.size());
  sc.branch(c.size());

  for (Word x : data) {
    // A: spreading-function "hash" — one multiply and one (slow) divide.
    auto hv = static_cast<std::size_t>(spread(x, n, vmax));
    sc.div(1);
    sc.alu(2);
    // B: advance while the slot holds a value not greater than x, keeping
    // equal values stable and the occupied run sorted.
    sc.mem(1);
    sc.branch(1);
    while (c[hv] <= x) {
      ++hv;
      sc.alu(1);
      sc.mem(1);
      sc.branch(1);
    }
    // C & D: insert and ripple the displaced suffix one slot rightward.
    Word w = c[hv];
    c[hv] = x;
    sc.mem(2);
    while (w != unentered) {
      ++hv;
      const Word next = c[hv];
      c[hv] = w;
      w = next;
      sc.alu(1);
      sc.mem(2);
      sc.branch(1);
    }
    sc.branch(1);
  }

  // F: pack the occupied slots back into `data`.
  std::size_t count = 0;
  for (Word v : c) {
    sc.mem(1);
    sc.branch(1);
    if (v != unentered) {
      data[count++] = v;
      sc.mem(1);
    }
  }
  FOLVEC_CHECK(count == data.size(), "pack phase lost elements");
}

AddressCalcStats address_calc_sort_vector(VectorMachine& m,
                                          std::span<Word> data, Word vmax) {
  AddressCalcStats stats;
  check_input(data, vmax);
  const auto n = static_cast<Word>(data.size());
  if (n == 0) return stats;
  const vm::AlgoSpan span(m, "sorting.address_calc");
  telemetry::count("sorting.address_calc.calls");
  const Word unentered = vmax;

  std::vector<Word> c(static_cast<std::size_t>(3 * n));
  m.fill(c, unentered);

  // Pass-loop working vectors are refilled in place; steady-state passes
  // allocate only masks and the expression temporaries of phase B.
  WordVec work;
  WordVec probed;
  WordVec shift_vals;
  WordVec shift_idx;
  WordVec scratch;
  WordVec ids;
  WordVec next_hv;
  WordVec next_a;
  WordVec assigned;  // kept half of the phase-E split; unused

  WordVec a = m.copy(data);
  // A: spreading-function "hash" of every datum at once.
  WordVec hv;
  m.mul_scalar_into(scratch, a, 2 * n);
  m.div_scalar_into(hv, scratch, vmax);

  while (!a.empty()) {
    const vm::AlgoSpan pass_span(m, "pass", stats.outer_passes);
    ++stats.outer_passes;

    // B: advance lanes whose slot holds a value <= their datum. The loop is
    // all-vector; each pass moves only the still-colliding lanes.
    for (;;) {
      m.gather_into(probed, c, hv);
      const Mask uninsertable = m.le(probed, a);
      if (m.count_true(uninsertable) == 0) break;
      ++stats.probe_steps;
      m.add_scalar_into(scratch, hv, 1);
      m.select_into(next_hv, uninsertable, scratch, hv);
      std::swap(hv, next_hv);
    }

    // C: overwrite-and-check with negated lane identifiers (-1..-nrest,
    // disjoint from the non-negative data), then store data where the
    // identifier survived. The claim is one fused scatter_gather_eq; every
    // claimed slot gets exactly one winner, so the masked data scatter below
    // overwrites every label the round left.
    m.gather_into(work, c, hv);  // save displaced originals
    m.iota_into(scratch, a.size(), 1);
    m.negate_into(ids, scratch);
    Mask entered;
    {
      const vm::ConflictWindow window(m, c, vm::WindowKind::kLabelRound,
                                      "address-calc id claim");
      entered = m.scatter_gather_eq(c, hv, ids);
    }
    m.scatter_masked(c, hv, a, entered);

    // D: ripple displaced values rightward, all chains in lock step. Chains
    // start at distinct slots (winners are unique per slot) and advance by
    // one slot per step, so they never collide; a chain that runs into
    // another winner's fresh value simply carries it along.
    Mask displaced;
    Mask to_shift;
    m.ne_scalar_into(displaced, work, unentered);
    m.mask_and_into(to_shift, entered, displaced);
    m.compress_into(shift_vals, work, to_shift);
    m.compress_into(scratch, hv, to_shift);
    m.add_scalar_into(shift_idx, scratch, 1);
    while (!shift_vals.empty()) {
      ++stats.shift_steps;
      m.gather_into(probed, c, shift_idx);
      m.scatter(c, shift_idx, shift_vals);
      const Mask nonempty = m.ne_scalar(probed, unentered);
      m.compress_into(shift_vals, probed, nonempty);
      m.compress_into(scratch, shift_idx, nonempty);
      m.add_scalar_into(shift_idx, scratch, 1);
    }

    // E: pack the lanes that lost the identifier check for the next pass:
    // one partition per control vector, keeping only the rejected halves
    // (replacing the old mask_not + two compresses).
    m.partition_into(assigned, next_hv, hv, entered);
    m.partition_into(assigned, next_a, a, entered);
    std::swap(hv, next_hv);
    std::swap(a, next_a);
  }

  // F: pack the occupied slots of C back into `data`.
  const WordVec cv = m.load(c, 0, c.size());
  const WordVec sorted = m.compress(cv, m.ne_scalar(cv, unentered));
  FOLVEC_CHECK(sorted.size() == data.size(), "pack phase lost elements");
  m.store(data, 0, sorted);
  // Displacement statistics: how far the probe/ripple loops had to walk.
  telemetry::count("sorting.address_calc.outer_passes", stats.outer_passes);
  telemetry::observe("sorting.address_calc.probe_steps", stats.probe_steps);
  telemetry::observe("sorting.address_calc.shift_steps", stats.shift_steps);
  return stats;
}

}  // namespace folvec::sorting

// The scalar SimdKernels instance: every entry populated, each one the
// plain loop of lane_loops.h compiled with the library's baseline flags.
//
// Serial machines run this table, FOLVEC_SIMD_LEVEL=scalar forces it on simd
// machines, every unsupported-host downgrade lands on it, and it fills the
// null entries of the ISA tables.
#include <cstddef>
#include <cstdint>
#include <span>

#include "vm/lane_loops.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {

const SimdKernels& simd_kernels_scalar() {
  using K = LaneLoops<SimdLevel::kScalar>;
  static const SimdKernels k = {
      SimdLevel::kScalar,
      "scalar",
      K::add,
      K::sub,
      K::mul,
      K::add_s,
      K::mul_s,
      K::and_s,
      K::or_s,
      K::shr_s,
      K::neg,
      K::div_s,
      K::mod_s,
      K::cmp_eq,
      K::cmp_ne,
      K::cmp_le,
      K::cmp_lt,
      K::cmp_eq_s,
      K::cmp_ne_s,
      K::cmp_le_s,
      K::cmp_lt_s,
      K::cmp_ge_s,
      K::mask_and,
      K::mask_or,
      K::mask_not,
      K::select,
      K::from_mask,
      K::iota,
      K::gather,
      K::gather_masked,
      K::load_strided,
      K::reduce_sum,
      K::reduce_min,
      K::reduce_max,
      K::count_true,
      K::compress,
      K::partition,
      K::first_oob,
      K::scatter_fwd,
      K::scatter_rev,
      K::match_eq,
      K::conflict_rank,
  };
  return k;
}

void apply_scatter_reference(std::span<Word> table, std::span<const Word> idx,
                             std::span<const Word> vals,
                             const std::uint8_t* mask,
                             ScatterTraversal traversal,
                             std::span<const std::size_t> order) {
  const std::size_t n = idx.size();
  const auto store = [&](std::size_t lane) {
    if (mask != nullptr && mask[lane] == 0) return;
    table[static_cast<std::size_t>(idx[lane])] = vals[lane];
  };
  switch (traversal) {
    case ScatterTraversal::kForward:
      for (std::size_t lane = 0; lane < n; ++lane) store(lane);
      break;
    case ScatterTraversal::kReverse:
      for (std::size_t lane = n; lane > 0; --lane) store(lane - 1);
      break;
    case ScatterTraversal::kExplicit:
      for (const std::size_t lane : order) store(lane);
      break;
  }
}

}  // namespace folvec::vm

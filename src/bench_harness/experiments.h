// Shared experiment runners for the reproduction benches.
//
// Each runner executes a scalar baseline and its vectorized counterpart on
// identical workloads, verifies the two agree (the benches double as
// integration tests), and prices both runs under a chime CostParams table.
// All reported "CPU times" are model estimates for the simulated machine,
// not host wall-clock — see DESIGN.md, Substitutions.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hashing/open_table.h"
#include "vm/cost_model.h"
#include "vm/machine.h"

namespace folvec::bench {

/// Scalar-vs-vector outcome of one experiment under a cost model.
struct RunResult {
  double scalar_us = 0;  ///< modeled scalar CPU time, microseconds
  double vector_us = 0;  ///< modeled vector CPU time, microseconds
  double acceleration() const {
    return vector_us > 0 ? scalar_us / vector_us : 0;
  }
  std::size_t iterations = 0;  ///< algorithm-specific pass/round count
};

/// Figures 9/10: enter floor(load_factor * table_size) distinct random keys
/// into an empty open-addressing table, scalar vs Figure-8 vectorized.
RunResult run_multi_hash(std::size_t table_size, double load_factor,
                         hashing::ProbeVariant variant, std::uint64_t seed,
                         const vm::CostParams& params);

/// Table 1, upper half: address-calculation sort of n random keys.
RunResult run_address_calc_sort(std::size_t n, vm::Word vmax,
                                std::uint64_t seed,
                                const vm::CostParams& params);

/// Table 1, lower half: distribution counting sort of n random keys drawn
/// from [0, range).
RunResult run_dist_count_sort(std::size_t n, vm::Word range,
                              std::uint64_t seed,
                              const vm::CostParams& params);

/// Figure 14: bulk-insert `inserted` random keys into a BST pre-populated
/// with `initial_size` random keys (the paper's Ni).
RunResult run_bst_insert(std::size_t initial_size, std::size_t inserted,
                         std::uint64_t seed, const vm::CostParams& params);

/// FOL* application: rewrite a term over `leaves` leaf symbols to left-deep
/// normal form. `right_comb` picks the fully right-leaning worst case;
/// otherwise a random tree shape is used.
RunResult run_assoc_rewrite(std::size_t leaves, bool right_comb,
                            std::uint64_t seed, const vm::CostParams& params);

/// FOL1 in isolation: decompose an index vector of `n` lanes over
/// `distinct` storage areas (distinct == n means duplicate-free).
/// `adaptive` toggles MachineConfig::adaptive for the vector run — theorem
/// sweeps that measure the pure O(N * max multiplicity) round cost pass
/// false, production-shaped comparisons leave the drain on.
RunResult run_fol1_decompose(std::size_t n, std::size_t distinct,
                             std::uint64_t seed, const vm::CostParams& params,
                             bool adaptive = true);

/// Figure 7 in isolation: enter `n` keys over `distinct` distinct values
/// (distinct == n means duplicate-free) into an empty `table_size`-entry
/// chaining table, scalar push-front vs multi_hash_chain_insert with the
/// adaptive drain on.
RunResult run_chain_insert(std::size_t table_size, std::size_t n,
                           std::size_t distinct, std::uint64_t seed,
                           const vm::CostParams& params);

/// Section 5 substrate: semispace GC over a random heap of `cells` cons
/// cells with `live_fraction` of them reachable, scalar vs vectorized
/// Cheney; the duplicate-evacuation claims are the implicit FOL.
RunResult run_gc(std::size_t cells, double live_fraction, std::uint64_t seed,
                 const vm::CostParams& params);

/// Section 5 substrate: Lee maze routing on a `side` x `side` grid with
/// `obstacle_pct` percent blocked cells, scalar BFS vs vectorized
/// wavefront expansion.
RunResult run_maze(std::size_t side, int obstacle_pct, std::uint64_t seed,
                   const vm::CostParams& params);

}  // namespace folvec::bench

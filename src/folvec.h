// folvec — vector processing for shared symbolic data.
//
// Umbrella header for the full public API. A one-screen tour:
//
//   vm/        The simulated pipelined vector processor: VectorMachine
//              (gather/scatter/compress/masks, ELS semantics), the chime
//              CostParams/CostAccumulator model.
//   fol/       The paper's contribution: fol1_decompose (FOL1),
//              fol_star_decompose (FOL*, L index vectors),
//              fol1_decompose_ordered (footnote 7, order-preserving),
//              and the Theorem 1-6 checkers.
//   list/      SIVP substrate: cons arenas, lockstep traversals, and the
//              FOL-repaired destructive update for shared tails.
//   hashing/   Figure 7/8: chaining + open-addressing multiple hashing,
//              vectorized lookups, and the VectorHashMap facade.
//   sorting/   Figures 11/12 + Table 1: address calculation sort,
//              distribution counting sort, the blocked vector scan, and
//              the stable LSD radix sort (ordered-FOL counting passes).
//   tree/      Section 4.3: pooled BST with FOL-filtered bulk insertion,
//              plus minimum-height rebalancing (the paper's future work).
//   rewrite/   Sections 2/3.3: term arenas, associative-law rewriting
//              (FOL*, L = 2), distributivity expansion to sum-of-products
//              (DAG-creating), and polynomial-denotation checking.
//   gc/        Section 5 lineage: semispace cons-heap GC, scalar Cheney vs
//              vectorized scan with overwrite-and-check evacuation claims.
//   routing/   Section 5 lineage: Lee maze routing, scalar BFS vs
//              vectorized wavefront with frontier deduplication.
//   queens/    Reference [7] lineage: N-queens by SIVP breadth-first
//              search (the no-sharing regime that needs no FOL).
//   lang/      An interpreter for the Fortran-90-style array
//              pseudo-language of the paper's listings (where-blocks,
//              countTrue, `A where M`, slices, list-vector subscripts),
//              executing on the VectorMachine — Figures 8 and 12 run
//              near-verbatim and are tested against the native code.
//   support/   Deterministic PRNG, table/CSV printing, statistics,
//              checked errors (PreconditionError / InternalError).
//
// Everything is deterministic: workloads take explicit seeds and the
// machine's duplicate-scatter survivor policy is a config knob
// (ScatterOrder), so every experiment in DESIGN.md reproduces exactly.
#pragma once

#include "fol/fol1.h"         // IWYU pragma: export
#include "fol/fol_star.h"     // IWYU pragma: export
#include "fol/invariants.h"   // IWYU pragma: export
#include "fol/ordered.h"      // IWYU pragma: export
#include "gc/heap.h"          // IWYU pragma: export
#include "hashing/chain_table.h"  // IWYU pragma: export
#include "hashing/hash_fn.h"  // IWYU pragma: export
#include "hashing/hash_map.h"     // IWYU pragma: export
#include "hashing/open_table.h"   // IWYU pragma: export
#include "lang/ast.h"         // IWYU pragma: export
#include "lang/interp.h"      // IWYU pragma: export
#include "lang/token.h"       // IWYU pragma: export
#include "list/list.h"        // IWYU pragma: export
#include "queens/queens.h"    // IWYU pragma: export
#include "rewrite/assoc_rewrite.h"  // IWYU pragma: export
#include "rewrite/distribute.h"     // IWYU pragma: export
#include "rewrite/polynomial.h"     // IWYU pragma: export
#include "rewrite/term.h"     // IWYU pragma: export
#include "routing/maze.h"     // IWYU pragma: export
#include "sorting/address_calc.h"   // IWYU pragma: export
#include "sorting/dist_count.h"     // IWYU pragma: export
#include "sorting/radix.h"    // IWYU pragma: export
#include "sorting/scan.h"     // IWYU pragma: export
#include "support/prng.h"     // IWYU pragma: export
#include "support/require.h"  // IWYU pragma: export
#include "support/stats.h"    // IWYU pragma: export
#include "support/table_printer.h"  // IWYU pragma: export
#include "tree/bst.h"         // IWYU pragma: export
#include "vm/cost_model.h"    // IWYU pragma: export
#include "vm/machine.h"       // IWYU pragma: export

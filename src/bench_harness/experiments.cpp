#include "bench_harness/experiments.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "fol/fol1.h"
#include "fol/invariants.h"
#include "gc/heap.h"
#include "hashing/chain_table.h"
#include "routing/maze.h"
#include "rewrite/assoc_rewrite.h"
#include "rewrite/term.h"
#include "sorting/address_calc.h"
#include "sorting/dist_count.h"
#include "support/prng.h"
#include "support/require.h"
#include "tree/bst.h"

namespace folvec::bench {

using vm::CostAccumulator;
using vm::CostParams;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

namespace {

/// Key universe for workload generation; wide enough that random draws are
/// almost always distinct, narrow enough that 2n*key never overflows.
constexpr Word kKeyBound = Word{1} << 30;

std::vector<Word> sorted_copy(std::vector<Word> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

RunResult run_multi_hash(std::size_t table_size, double load_factor,
                         hashing::ProbeVariant variant, std::uint64_t seed,
                         const CostParams& params) {
  RunResult result;
  const auto n_keys = static_cast<std::size_t>(
      load_factor * static_cast<double>(table_size));
  if (n_keys == 0) return result;
  const std::vector<Word> keys = random_unique_keys(n_keys, kKeyBound, seed);

  // Scalar baseline. Table initialization is not charged on either side:
  // the paper enters keys into an (already) empty table.
  CostAccumulator scalar_acc;
  hashing::ScalarOpenTable scalar_table(table_size, variant, &scalar_acc);
  for (Word k : keys) scalar_table.insert(k);
  result.scalar_us = scalar_acc.microseconds(params);

  // Vectorized (Figure 8).
  VectorMachine m;
  std::vector<Word> table(table_size, hashing::kUnentered);
  const hashing::MultiHashStats stats =
      hashing::multi_hash_open_insert(m, table, keys, variant);
  result.vector_us = m.cost().microseconds(params);
  result.iterations = stats.iterations;

  // Cross-check: both tables hold exactly the inserted key multiset.
  std::vector<Word> entered;
  entered.reserve(n_keys);
  for (Word v : table) {
    if (v != hashing::kUnentered) entered.push_back(v);
  }
  FOLVEC_CHECK(sorted_copy(entered) == sorted_copy(keys),
               "vectorized multiple hash lost or duplicated keys");
  for (Word k : keys) {
    FOLVEC_CHECK(scalar_table.contains(k), "scalar table lost a key");
  }
  return result;
}

RunResult run_address_calc_sort(std::size_t n, Word vmax, std::uint64_t seed,
                                const CostParams& params) {
  RunResult result;
  const std::vector<Word> data = random_keys(n, vmax, seed);
  const std::vector<Word> expected = sorted_copy(data);

  std::vector<Word> scalar_data = data;
  CostAccumulator scalar_acc;
  sorting::address_calc_sort_scalar(scalar_data, vmax, &scalar_acc);
  result.scalar_us = scalar_acc.microseconds(params);
  FOLVEC_CHECK(scalar_data == expected, "scalar address-calc sort failed");

  std::vector<Word> vec_data = data;
  VectorMachine m;
  const sorting::AddressCalcStats stats =
      sorting::address_calc_sort_vector(m, vec_data, vmax);
  result.vector_us = m.cost().microseconds(params);
  result.iterations = stats.outer_passes;
  FOLVEC_CHECK(vec_data == expected, "vector address-calc sort failed");
  return result;
}

RunResult run_dist_count_sort(std::size_t n, Word range, std::uint64_t seed,
                              const CostParams& params) {
  RunResult result;
  const std::vector<Word> data = random_keys(n, range, seed);
  const std::vector<Word> expected = sorted_copy(data);

  std::vector<Word> scalar_data = data;
  CostAccumulator scalar_acc;
  sorting::dist_count_sort_scalar(scalar_data, range, &scalar_acc);
  result.scalar_us = scalar_acc.microseconds(params);
  FOLVEC_CHECK(scalar_data == expected, "scalar counting sort failed");

  std::vector<Word> vec_data = data;
  VectorMachine m;
  const sorting::DistCountStats stats =
      sorting::dist_count_sort_vector(m, vec_data, range);
  result.vector_us = m.cost().microseconds(params);
  result.iterations = stats.fol_rounds;
  FOLVEC_CHECK(vec_data == expected, "vector counting sort failed");
  return result;
}

RunResult run_bst_insert(std::size_t initial_size, std::size_t inserted,
                         std::uint64_t seed, const CostParams& params) {
  RunResult result;
  const std::vector<Word> initial =
      random_keys(initial_size, kKeyBound, seed);
  const std::vector<Word> batch =
      random_keys(inserted, kKeyBound, seed ^ 0xabcdefULL);
  const std::size_t capacity = initial_size + inserted + 1;

  // Pre-population is identical on both sides and is not charged.
  CostAccumulator scalar_acc;
  tree::Bst scalar_tree(capacity, &scalar_acc);
  for (Word k : initial) scalar_tree.insert_scalar(k);
  scalar_acc.reset();
  for (Word k : batch) scalar_tree.insert_scalar(k);
  result.scalar_us = scalar_acc.microseconds(params);

  VectorMachine m;
  tree::Bst vec_tree(capacity);
  for (Word k : initial) vec_tree.insert_scalar(k);
  m.cost().reset();
  const tree::BulkInsertStats stats = vec_tree.insert_bulk(m, batch);
  result.vector_us = m.cost().microseconds(params);
  result.iterations = stats.passes;

  FOLVEC_CHECK(scalar_tree.check_invariant(), "scalar BST invariant broken");
  FOLVEC_CHECK(vec_tree.check_invariant(), "bulk BST invariant broken");
  FOLVEC_CHECK(scalar_tree.inorder() == vec_tree.inorder(),
               "bulk insert produced a different key multiset");
  return result;
}

RunResult run_assoc_rewrite(std::size_t leaves, bool right_comb,
                            std::uint64_t seed, const CostParams& params) {
  RunResult result;
  rewrite::TermArena arena;
  Xoshiro256 rng(seed);
  const Word root = right_comb ? rewrite::build_right_comb(arena, leaves)
                               : rewrite::build_random_tree(arena, leaves, rng);
  const std::vector<Word> expected_leaves = arena.leaf_sequence(root);

  rewrite::TermArena scalar_arena = arena;
  CostAccumulator scalar_acc;
  rewrite::assoc_rewrite_scalar(scalar_arena, root, &scalar_acc);
  result.scalar_us = scalar_acc.microseconds(params);
  FOLVEC_CHECK(scalar_arena.is_left_deep(root) &&
                   scalar_arena.leaf_sequence(root) == expected_leaves,
               "scalar rewrite broke the term");

  rewrite::TermArena vec_arena = arena;
  VectorMachine m;
  const rewrite::RewriteStats stats =
      rewrite::assoc_rewrite_vector(m, vec_arena, root);
  result.vector_us = m.cost().microseconds(params);
  result.iterations = stats.sweeps;
  FOLVEC_CHECK(vec_arena.leaf_sequence(root) == expected_leaves,
               "vector rewrite broke the term");
  return result;
}

RunResult run_fol1_decompose(std::size_t n, std::size_t distinct,
                             std::uint64_t seed, const CostParams& params,
                             bool adaptive) {
  FOLVEC_REQUIRE(distinct > 0 && distinct <= n,
                 "distinct must be in [1, n]");
  RunResult result;
  std::vector<Word> targets(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = static_cast<Word>(i % distinct);
  }
  Xoshiro256 rng(seed);
  shuffle(targets, rng);

  // Scalar baseline: occurrence-counting pass over a direct-mapped table
  // (the sequential way to split lanes into conflict-free generations).
  CostAccumulator scalar_acc;
  {
    vm::ScalarCost sc(&scalar_acc);
    std::vector<std::size_t> occurrence(distinct, 0);
    std::vector<std::size_t> round(n);
    for (std::size_t i = 0; i < n; ++i) {
      round[i] = occurrence[static_cast<std::size_t>(targets[i])]++;
      sc.alu(2);
      sc.mem(3);
      sc.branch(1);
    }
  }
  result.scalar_us = scalar_acc.microseconds(params);

  vm::MachineConfig config;
  config.adaptive = adaptive;
  VectorMachine m(config);
  std::vector<Word> work(distinct, 0);
  const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
  result.vector_us = m.cost().microseconds(params);
  result.iterations = dec.rounds();
  FOLVEC_CHECK(fol::satisfies_all_theorems(dec, targets),
               "FOL1 theorems violated");
  FOLVEC_CHECK(m.hazards().empty(),
               "FOL1 benchmark recorded ScatterCheck hazards");
  return result;
}

RunResult run_chain_insert(std::size_t table_size, std::size_t n,
                           std::size_t distinct, std::uint64_t seed,
                           const CostParams& params) {
  FOLVEC_REQUIRE(distinct > 0 && distinct <= n,
                 "distinct must be in [1, n]");
  RunResult result;
  std::vector<Word> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<Word>(i % distinct);
  Xoshiro256 rng(seed);
  shuffle(keys, rng);

  CostAccumulator scalar_acc;
  hashing::ChainTable scalar_table(table_size, n, &scalar_acc);
  for (Word k : keys) scalar_table.insert_scalar(k);
  result.scalar_us = scalar_acc.microseconds(params);

  VectorMachine m;
  hashing::ChainTable table(table_size, n);
  hashing::multi_hash_chain_insert(m, table, keys);
  result.vector_us = m.cost().microseconds(params);

  for (std::size_t h = 0; h < table_size; ++h) {
    FOLVEC_CHECK(sorted_copy(table.chain(h)) ==
                     sorted_copy(scalar_table.chain(h)),
                 "vectorized chain insert lost or duplicated keys");
  }
  return result;
}

RunResult run_gc(std::size_t cells, double live_fraction, std::uint64_t seed,
                 const CostParams& params) {
  RunResult result;
  constexpr std::size_t kListLen = 20;
  const std::size_t n_lists = std::max<std::size_t>(1, cells / kListLen);
  const auto n_live =
      static_cast<std::size_t>(live_fraction * static_cast<double>(n_lists));

  gc::ConsHeap heap(n_lists * kListLen + 1);
  Xoshiro256 rng(seed);
  std::vector<Word> heads;
  heads.reserve(n_lists);
  for (std::size_t l = 0; l < n_lists; ++l) {
    Word tail = gc::kNilValue;
    for (std::size_t i = 0; i < kListLen; ++i) {
      tail = gc::make_pointer(
          heap.alloc(gc::make_immediate(rng.in_range(0, 999)), tail));
    }
    heads.push_back(tail);
  }
  // Root a prefix of the lists; the rest is garbage.
  std::vector<Word> roots(heads.begin(),
                          heads.begin() + static_cast<std::ptrdiff_t>(n_live));

  gc::ConsHeap scalar_heap = heap;
  std::vector<Word> scalar_roots = roots;
  CostAccumulator scalar_acc;
  const gc::GcStats s1 = scalar_heap.collect_scalar(scalar_roots, &scalar_acc);
  result.scalar_us = scalar_acc.microseconds(params);

  gc::ConsHeap vector_heap = heap;
  std::vector<Word> vector_roots = roots;
  VectorMachine m;
  const gc::GcStats s2 = vector_heap.collect_vector(m, vector_roots);
  result.vector_us = m.cost().microseconds(params);
  result.iterations = s2.scan_passes;

  FOLVEC_CHECK(s1.live_cells == s2.live_cells,
               "collectors disagree on liveness");
  FOLVEC_CHECK(s1.live_cells == n_live * kListLen,
               "collector liveness does not match the rooted set");
  for (std::size_t r = 0; r < roots.size(); ++r) {
    FOLVEC_CHECK(gc::ConsHeap::deep_equal(scalar_heap, scalar_roots[r],
                                          vector_heap, vector_roots[r]),
                 "collectors disagree on structure");
  }
  return result;
}

RunResult run_maze(std::size_t side, int obstacle_pct, std::uint64_t seed,
                   const CostParams& params) {
  RunResult result;
  routing::Grid grid(side, side);
  Xoshiro256 rng(seed);
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      if ((x != 0 || y != 0) &&
          rng.unit() < static_cast<double>(obstacle_pct) / 100.0) {
        grid.set_obstacle(x, y);
      }
    }
  }
  const Word source = grid.index(0, 0);

  CostAccumulator scalar_acc;
  const auto scalar_field = grid.route_scalar(source, &scalar_acc);
  result.scalar_us = scalar_acc.microseconds(params);

  VectorMachine m;
  routing::RouteStats stats;
  const auto vector_field = grid.route_vector(m, source, &stats);
  result.vector_us = m.cost().microseconds(params);
  result.iterations = stats.wavefronts;

  FOLVEC_CHECK(scalar_field == vector_field,
               "routers disagree on the distance field");
  return result;
}

}  // namespace folvec::bench

// The execution backend of VectorMachine.
//
// VectorMachine decides *what* each primitive computes (semantics, cost
// accounting, audit hooks, bounds checks); the Backend decides *how* the lane
// loops run: through which SimdKernels table (simd_kernels.h — the scalar
// reference table or a resolved ISA table) and across how many pool workers.
// Every BackendKind is this one class: serial is the scalar table on one
// worker, parallel the scalar table on backend_threads workers, simd the
// resolved table on one worker, parallel+simd the resolved table on
// backend_threads workers. With one worker no instruction is ever split and
// the thread pool is never started.
//
// Every primitive is bit-identical to the one-worker scalar-table backend at
// any worker count and on any table. For elementwise work, reductions,
// compress, and bounds scans that follows from deterministic chunking
// (contiguous ascending chunks, each running the table's entry over its
// [lo, hi) interval, partials combined in chunk order). Chunked instructions
// dispatch with static worker affinity (ThreadPool::run_affine): chunk i
// always runs on worker i, so consecutive instructions over equal-length
// vectors hand each worker the same lane range — its chunk stays in its
// cache across the whole round.
//
// Scatter is the interesting case — the survivor of a contested address is
// defined by the lane *traversal order* — and, once split, runs one
// lane-exact ELS merge, the single-pass claim-interval merge: the survivor
// of an address is its write with the HIGHEST traversal position, i.e. the
// first one encountered when scanning positions n-1 down to 0. The table is
// partitioned into disjoint per-worker address intervals; in ONE dispatch
// every worker scans all n positions in that descending order (forward,
// reverse, or through the explicit order array), skips addresses outside
// its interval, and applies the first write it meets to each of its
// addresses (an epoch-stamped claim array dedups without clearing or
// atomics — interval disjointness removes all races). Under heavy
// collisions each address is written exactly once.
//
// For any address the surviving write is chosen by a single owner in
// traversal-position order, so the survivor equals the unsplit scatter's
// for every ScatterOrder and any worker count. This is the lane-exact ELS
// merge: the parallel machine stores exactly one of the written values —
// the same one the serial machine does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "vm/machine.h"
#include "vm/thread_pool.h"

namespace folvec::vm {

/// Non-owning reference to a `void(std::size_t lo, std::size_t hi)` kernel.
/// The backend invokes it synchronously (possibly from worker threads)
/// before returning, so the referenced callable only needs to outlive the
/// call.
class RangeFn {
 public:
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, RangeFn>, int> =
                0>
  RangeFn(const F& f)  // NOLINT(google-explicit-constructor)
      : ctx_(&f), call_([](const void* ctx, std::size_t lo, std::size_t hi) {
          (*static_cast<const F*>(ctx))(lo, hi);
        }) {}

  void operator()(std::size_t lo, std::size_t hi) const { call_(ctx_, lo, hi); }

 private:
  const void* ctx_;
  void (*call_)(const void*, std::size_t, std::size_t);
};

/// The order lanes of one scatter instruction are applied in. kForward and
/// kReverse avoid materializing an order vector; kExplicit carries one
/// (VectorMachine derives it from shuffle_seed for ScatterOrder::kShuffled,
/// independently of the backend and its worker count).
enum class ScatterTraversal : std::uint8_t { kForward, kReverse, kExplicit };

/// The reference scatter semantics every table and worker count must
/// reproduce: lanes visited one at a time in `traversal` order, the last
/// visit to an address wins.
void apply_scatter_reference(std::span<Word> table, std::span<const Word> idx,
                             std::span<const Word> vals,
                             const std::uint8_t* mask,
                             ScatterTraversal traversal,
                             std::span<const std::size_t> order);

namespace detail {

/// Chunk i of count() even chunks over [0, n): [i*step, min(n, (i+1)*step)).
/// Only the first count() chunks are non-empty; callers dispatch exactly
/// that many tasks, so no zero-lane chunk ever reaches the pool.
struct ChunkPlan {
  std::size_t step;
  std::size_t n;
  std::size_t lo(std::size_t i) const { return i * step; }
  /// Subtraction form: `(i + 1) * step` wraps for n near SIZE_MAX (the last
  /// chunk's product exceeds SIZE_MAX whenever step does not divide n).
  std::size_t hi(std::size_t i) const {
    const std::size_t base = lo(i);
    return n - base < step ? n : base + step;
  }
  /// Number of non-empty chunks: ceil(n / step), overflow-proof.
  std::size_t count() const {
    return n == 0 ? 0 : n / step + (n % step != 0 ? 1 : 0);
  }
};

/// Plans `chunks` even chunks over [0, n). The ceil-division is written in
/// quotient-plus-remainder form: the textbook (n + chunks - 1) / chunks
/// wraps for n near SIZE_MAX and would plan step 0.
inline ChunkPlan plan(std::size_t n, std::size_t chunks) {
  const std::size_t step = n / chunks + (n % chunks != 0 ? 1 : 0);
  return ChunkPlan{step == 0 ? 1 : step, n};
}

}  // namespace detail

class Backend {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `kernels` is the table every lane loop runs through; it must outlive
  /// the backend (every table from simd_kernels_for is a function-local
  /// static). `workers` == 0 picks std::thread::hardware_concurrency (at
  /// least 1). `grain` is the minimum lane count per chunk: instructions
  /// shorter than two grains run inline, so tiny vectors skip dispatch.
  Backend(const SimdKernels& kernels, std::size_t workers, std::size_t grain);
  ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Worker lanes the backend may chunk an instruction across (1 = never).
  std::size_t workers() const { return workers_; }
  /// The table this backend executes through.
  const SimdKernels& kernels() const { return k_; }

  /// Runs `fn` over [0, n), possibly split into disjoint contiguous chunks
  /// executed concurrently. `fn` must be safe for disjoint ranges. Any
  /// exception a chunk throws is rethrown here; when several chunks throw,
  /// the lowest chunk's exception wins (matching serial first-lane-throws).
  void for_lanes(std::size_t n, RangeFn fn);

  /// Reductions. Chunk partials combine in ascending chunk order, so results
  /// equal the unsplit fold for the associative folds used here (including
  /// wrap-around addition).
  Word reduce_sum(std::span<const Word> v);
  Word reduce_min(std::span<const Word> v);
  Word reduce_max(std::span<const Word> v);
  std::size_t count_true(std::span<const std::uint8_t> m);

  /// Pack-under-mask into a caller-sized destination: `out` has exactly
  /// popcount(m) elements, lane order preserved.
  void compress_into(std::span<const Word> v, std::span<const std::uint8_t> m,
                     std::span<Word> out);

  /// Fused kernel: ELS scatter of (idx, vals) into `table` (exactly like
  /// scatter()), then readback compare out_match[i] = (mask-active and
  /// table[idx[i]] == vals[i]). The readback pass begins only after the
  /// scatter pass fully completes (the composition's memory order). Returns
  /// the number of true lanes in out_match. `between_passes`, when non-null,
  /// is invoked once on the issuing thread at that boundary — VectorMachine
  /// uses it for the audit readback probe and the masked variant's
  /// all-lanes bounds check; its exceptions propagate with the scatter
  /// already applied, matching the unfused composition.
  std::size_t scatter_gather_eq(std::span<Word> table,
                                std::span<const Word> idx,
                                std::span<const Word> vals,
                                const std::uint8_t* mask,
                                ScatterTraversal traversal,
                                std::span<const std::size_t> order,
                                std::span<std::uint8_t> out_match,
                                void (*between_passes)(void*), void* hook_ctx);

  /// Fused two-way pack: kept gets v's mask-true lanes, rejected the rest,
  /// both in lane order. The spans are pre-sized exactly (kept.size() ==
  /// popcount(m), rejected.size() == v.size() - popcount(m)).
  void partition(std::span<const Word> v, std::span<const std::uint8_t> m,
                 std::span<Word> kept, std::span<Word> rejected);

  /// Returns the lowest lane whose index falls outside [0, table_size), or
  /// npos when all (mask-active, if mask != nullptr) lanes are in bounds.
  std::size_t first_oob(std::span<const Word> idx, std::size_t table_size,
                        const std::uint8_t* mask);

  /// Applies table[idx[lane]] = vals[lane] for every (mask-active) lane, as
  /// if lanes were visited one at a time in `traversal` order — the last
  /// visit to an address wins. All indices of active lanes are already
  /// bounds-checked. Bit-identical to apply_scatter_reference for any
  /// worker count.
  void scatter(std::span<Word> table, std::span<const Word> idx,
               std::span<const Word> vals, const std::uint8_t* mask,
               ScatterTraversal traversal, std::span<const std::size_t> order);

 private:
  /// Chunks an n-lane instruction: 1 (inline) below two grains, otherwise
  /// at most `workers_`, never fewer than one grain per chunk.
  std::size_t chunks_for(std::size_t n) const;

  /// Plans `c` chunks over n lanes and asserts the zero-lane-chunk
  /// invariant; dispatch exactly the returned plan's count() tasks.
  static detail::ChunkPlan checked_plan(std::size_t n, std::size_t c);

  /// The pool, spawned on first parallel-sized instruction.
  ThreadPool& pool();

  /// Folds each chunk with the table's whole-span `span_kernel` and combines
  /// the partials with `fold` in ascending chunk order.
  Word reduce(std::span<const Word> v, Word (*fold)(Word, Word),
              Word (*span_kernel)(const Word*, std::size_t));

  /// Pack offsets of plan `p` over `m`: entry i is the number of true lanes
  /// before chunk i, the last entry (index count()) the total.
  std::vector<std::size_t> chunk_offsets(std::span<const std::uint8_t> m,
                                         const detail::ChunkPlan& p);

  /// The claim-interval merge of a split scatter (see the file comment).
  void scatter_single_pass(std::span<Word> table, std::span<const Word> idx,
                           std::span<const Word> vals,
                           const std::uint8_t* mask,
                           ScatterTraversal traversal,
                           std::span<const std::size_t> order);

  const SimdKernels& k_;
  std::size_t workers_;
  std::size_t grain_;
  std::unique_ptr<ThreadPool> pool_;
  /// Single-pass merge claim stamps, one per table word: claim_[addr] ==
  /// claim_epoch_ means `addr` already received its surviving write this
  /// instruction. Bumping the epoch invalidates every stamp at once, so the
  /// array is never cleared; entries are only touched by the interval owner.
  std::vector<std::uint64_t> claim_;
  std::uint64_t claim_epoch_ = 0;
};

}  // namespace folvec::vm

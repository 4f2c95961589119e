#include "vm/backend.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "support/require.h"
#include "telemetry/metrics.h"
#include "telemetry/spans.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {

namespace {

std::size_t hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Lanes between early-cut polls in the first_oob scan: cheap enough to be
/// invisible next to the compare, frequent enough that a chunk bails within
/// microseconds of a lower chunk's hit.
constexpr std::size_t kEarlyCutStride = 1024;

/// `mask` advanced to lane `lo`, or null for an unmasked instruction.
const std::uint8_t* mask_at(const std::uint8_t* mask, std::size_t lo) {
  return mask != nullptr ? mask + lo : nullptr;
}

}  // namespace

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

Backend::Backend(const SimdKernels& kernels, std::size_t workers,
                 std::size_t grain)
    : k_(kernels),
      workers_(workers == 0 ? hardware_workers() : workers),
      grain_(std::max<std::size_t>(1, grain)) {}

Backend::~Backend() = default;

std::size_t Backend::chunks_for(std::size_t n) const {
  if (workers_ == 1 || n < 2 * grain_) return 1;
  return std::min(workers_, n / grain_);
}

detail::ChunkPlan Backend::checked_plan(std::size_t n, std::size_t c) {
  const detail::ChunkPlan p = detail::plan(n, c);
  const std::size_t k = p.count();
  // Dispatching exactly count() tasks keeps every pooled chunk non-empty:
  // the last one must still own at least one lane.
  FOLVEC_CHECK(k >= 1 && p.lo(k - 1) < p.hi(k - 1),
               "chunk plan produced a zero-lane pooled chunk");
  return p;
}

ThreadPool& Backend::pool() {
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(workers_);
  return *pool_;
}

void Backend::for_lanes(std::size_t n, RangeFn fn) {
  const std::size_t c = chunks_for(n);
  if (c <= 1) {
    fn(0, n);
    return;
  }
  const detail::ChunkPlan p = checked_plan(n, c);
  telemetry::SpanTracer* t = telemetry::tracer();
  if (t == nullptr) {
    pool().run_affine(p.count(),
                      [&](std::size_t i) { fn(p.lo(i), p.hi(i)); });
    return;
  }
  // One flow per split instruction: the start binds to the instruction's op
  // slice on the issuing thread, and every worker chunk records the bound
  // finish, drawing issue -> chunk arrows in the trace viewer.
  const std::uint64_t flow = t->next_flow_id();
  t->flow_begin("vm.lanes.split", flow);
  pool().run_affine(p.count(), [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    fn(p.lo(i), p.hi(i));
    t->chunk("vm.lanes.chunk", p.lo(i), p.hi(i), flow, start,
             std::chrono::steady_clock::now());
  });
}

Word Backend::reduce(std::span<const Word> v, Word (*fold)(Word, Word),
                     Word (*span_kernel)(const Word*, std::size_t)) {
  const std::size_t c = chunks_for(v.size());
  if (c <= 1) return span_kernel(v.data(), v.size());
  // Chunks are non-empty by construction, so every partial has a seed lane.
  const detail::ChunkPlan p = checked_plan(v.size(), c);
  const std::size_t k = p.count();
  std::vector<Word> partials(k);
  pool().run_affine(k, [&](std::size_t i) {
    partials[i] = span_kernel(v.data() + p.lo(i), p.hi(i) - p.lo(i));
  });
  // Combine in ascending chunk order: for the associative folds used here
  // this equals the unsplit left fold bit-for-bit.
  Word acc = partials[0];
  for (std::size_t i = 1; i < k; ++i) acc = fold(acc, partials[i]);
  return acc;
}

Word Backend::reduce_sum(std::span<const Word> v) {
  return reduce(
      v,
      [](Word a, Word b) {
        return static_cast<Word>(static_cast<std::uint64_t>(a) +
                                 static_cast<std::uint64_t>(b));
      },
      k_.reduce_sum);
}

Word Backend::reduce_min(std::span<const Word> v) {
  return reduce(v, [](Word a, Word b) { return std::min(a, b); },
                k_.reduce_min);
}

Word Backend::reduce_max(std::span<const Word> v) {
  return reduce(v, [](Word a, Word b) { return std::max(a, b); },
                k_.reduce_max);
}

std::size_t Backend::count_true(std::span<const std::uint8_t> m) {
  const std::size_t c = chunks_for(m.size());
  if (c <= 1) return k_.count_true(m.data(), m.size());
  const detail::ChunkPlan p = checked_plan(m.size(), c);
  const std::vector<std::size_t> offsets = chunk_offsets(m, p);
  return offsets.back();
}

std::vector<std::size_t> Backend::chunk_offsets(std::span<const std::uint8_t> m,
                                                const detail::ChunkPlan& p) {
  const std::size_t k = p.count();
  std::vector<std::size_t> offsets(k + 1, 0);
  pool().run_affine(k, [&](std::size_t i) {
    offsets[i + 1] = k_.count_true(m.data() + p.lo(i), p.hi(i) - p.lo(i));
  });
  for (std::size_t i = 0; i < k; ++i) offsets[i + 1] += offsets[i];
  return offsets;
}

void Backend::compress_into(std::span<const Word> v,
                            std::span<const std::uint8_t> m,
                            std::span<Word> out) {
  const std::size_t c = chunks_for(v.size());
  if (c <= 1) {
    k_.compress(out.data(), out.size(), v.data(), m.data(), v.size());
    return;
  }
  const detail::ChunkPlan p = checked_plan(v.size(), c);
  const std::vector<std::size_t> at = chunk_offsets(m, p);
  pool().run_affine(p.count(), [&](std::size_t i) {
    k_.compress(out.data() + at[i], at[i + 1] - at[i], v.data() + p.lo(i),
                m.data() + p.lo(i), p.hi(i) - p.lo(i));
  });
}

void Backend::partition(std::span<const Word> v,
                        std::span<const std::uint8_t> m, std::span<Word> kept,
                        std::span<Word> rejected) {
  const std::size_t c = chunks_for(v.size());
  if (c <= 1) {
    k_.partition(kept.data(), kept.size(), rejected.data(), v.data(), m.data(),
                 v.size());
    return;
  }
  const detail::ChunkPlan p = checked_plan(v.size(), c);
  // Chunk i's kept lanes start at the true count of the chunks before it;
  // its rejected lanes at the false count, i.e. lo minus that.
  const std::vector<std::size_t> at = chunk_offsets(m, p);
  pool().run_affine(p.count(), [&](std::size_t i) {
    k_.partition(kept.data() + at[i], at[i + 1] - at[i],
                 rejected.data() + (p.lo(i) - at[i]), v.data() + p.lo(i),
                 m.data() + p.lo(i), p.hi(i) - p.lo(i));
  });
}

std::size_t Backend::first_oob(std::span<const Word> idx,
                               std::size_t table_size,
                               const std::uint8_t* mask) {
  const std::size_t c = chunks_for(idx.size());
  if (c <= 1) return k_.first_oob(idx.data(), idx.size(), table_size, mask);
  const detail::ChunkPlan p = checked_plan(idx.size(), c);
  // Early-cut scan: `best` holds the lowest offending lane found so far.
  // Each chunk scans in kEarlyCutStride blocks and bails only when best <
  // its lo — i.e. a STRICTLY earlier chunk already hit — so the chunk
  // containing the globally-first violation can never bail (that would
  // contradict globality) and its first local hit IS the global first.
  // Every store is raced only through the CAS-min loop, and the pool join
  // orders the final relaxed load after all of them.
  std::atomic<std::size_t> best{npos};
  pool().run_affine(p.count(), [&](std::size_t i) {
    const std::size_t lo = p.lo(i);
    const std::size_t hi = p.hi(i);
    for (std::size_t b = lo; b < hi; b += kEarlyCutStride) {
      if (best.load(std::memory_order_relaxed) < lo) return;
      const std::size_t len = std::min(kEarlyCutStride, hi - b);
      const std::size_t hit = k_.first_oob(idx.data() + b, len, table_size,
                                           mask_at(mask, b));
      if (hit == npos) continue;
      const std::size_t j = b + hit;
      std::size_t cur = best.load(std::memory_order_relaxed);
      while (j < cur && !best.compare_exchange_weak(
                            cur, j, std::memory_order_relaxed)) {
      }
      return;  // later lanes of this chunk cannot beat its first hit
    }
  });
  return best.load(std::memory_order_relaxed);
}

void Backend::scatter(std::span<Word> table, std::span<const Word> idx,
                      std::span<const Word> vals, const std::uint8_t* mask,
                      ScatterTraversal traversal,
                      std::span<const std::size_t> order) {
  if (chunks_for(idx.size()) <= 1 || table.empty()) {
    telemetry::count("pool.scatter.inline");
    // The table's scatters cover the two lane-order traversals; explicit
    // (shuffled) orders have no vector shape and run the reference loop.
    switch (traversal) {
      case ScatterTraversal::kForward:
        k_.scatter_fwd(table.data(), idx.data(), vals.data(), mask,
                       idx.size());
        return;
      case ScatterTraversal::kReverse:
        k_.scatter_rev(table.data(), idx.data(), vals.data(), mask,
                       idx.size());
        return;
      case ScatterTraversal::kExplicit:
        apply_scatter_reference(table, idx, vals, mask, traversal, order);
        return;
    }
  }
  telemetry::count("pool.scatter.parallel");
  telemetry::count("pool.merge.single_pass");
  scatter_single_pass(table, idx, vals, mask, traversal, order);
}

void Backend::scatter_single_pass(std::span<Word> table,
                                  std::span<const Word> idx,
                                  std::span<const Word> vals,
                                  const std::uint8_t* mask,
                                  ScatterTraversal traversal,
                                  std::span<const std::size_t> order) {
  const std::size_t n = idx.size();
  // The survivor of an address is its write with the highest traversal
  // position. Scanning positions n-1 down to 0, the FIRST write each
  // interval owner meets for an address is that survivor; the claim stamp
  // then retires the address for the rest of the scan.
  const auto lane_at = [&](std::size_t pos) {
    switch (traversal) {
      case ScatterTraversal::kReverse:
        return n - 1 - pos;
      case ScatterTraversal::kExplicit:
        return order[pos];
      case ScatterTraversal::kForward:
        break;
    }
    return pos;
  };
  if (claim_.size() < table.size()) claim_.resize(table.size(), 0);
  ++claim_epoch_;
  const std::uint64_t epoch = claim_epoch_;
  std::uint64_t* claim = claim_.data();
  const std::size_t ranges = std::min(workers_, table.size());
  const std::size_t range_words =
      table.size() / ranges + (table.size() % ranges != 0 ? 1 : 0);
  pool().run_affine(ranges, [&](std::size_t r) {
    const std::size_t a_lo = r * range_words;
    const std::size_t a_hi = std::min(table.size(), a_lo + range_words);
    if (a_lo >= a_hi) return;
    for (std::size_t pos = n; pos-- > 0;) {
      const std::size_t lane = lane_at(pos);
      if (mask != nullptr && mask[lane] == 0) continue;
      const auto addr = static_cast<std::size_t>(idx[lane]);
      if (addr < a_lo || addr >= a_hi) continue;
      if (claim[addr] == epoch) continue;
      claim[addr] = epoch;
      table[addr] = vals[lane];
    }
  });
}

std::size_t Backend::scatter_gather_eq(
    std::span<Word> table, std::span<const Word> idx,
    std::span<const Word> vals, const std::uint8_t* mask,
    ScatterTraversal traversal, std::span<const std::size_t> order,
    std::span<std::uint8_t> out_match, void (*between_passes)(void*),
    void* hook_ctx) {
  // The scatter pass is exactly the plain scatter (inline or single-pass
  // merge); the pool join inside it is the barrier that makes every write
  // visible to the readback pass below.
  scatter(table, idx, vals, mask, traversal, order);
  if (between_passes != nullptr) between_passes(hook_ctx);

  const std::size_t n = idx.size();
  const std::size_t c = chunks_for(n);
  if (c <= 1) {
    return k_.match_eq(out_match.data(), table.data(), idx.data(),
                       vals.data(), mask, n);
  }
  const detail::ChunkPlan p = checked_plan(n, c);
  const std::size_t k = p.count();
  std::vector<std::size_t> partials(k, 0);
  pool().run_affine(k, [&](std::size_t i) {
    const std::size_t lo = p.lo(i);
    partials[i] =
        k_.match_eq(out_match.data() + lo, table.data(), idx.data() + lo,
                    vals.data() + lo, mask_at(mask, lo), p.hi(i) - lo);
  });
  std::size_t survivors = 0;
  for (std::size_t h : partials) survivors += h;
  return survivors;
}

}  // namespace folvec::vm

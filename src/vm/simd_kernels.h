// Runtime-dispatched SIMD kernel tables.
//
// A SimdKernels instance is one ISA level's lowering of the VectorMachine
// primitive set to real vector instructions: one translation unit per level
// (simd_kernels_scalar.cpp always; simd_kernels_avx2.cpp /
// simd_kernels_avx512.cpp on x86-64; simd_kernels_neon.cpp on aarch64),
// each compiled with exactly that level's target flags so the binary runs on
// any host and the dispatcher (simd_backend.h) picks a table the CPU
// actually supports.
//
// Each lane loop is written once, in lane_loops.h. The scalar table is the
// reference implementation: every entry is that header's loop, and kSerial
// machines run it; kSimd machines run a resolved ISA table. The AVX2 and
// AVX-512 tables take the same loops, vectorized under their own flags, for
// every entry where that measures no slower than hand intrinsics; their
// remaining entries are intrinsics that measure faster or that no plain
// loop compiles to (gathers, compress, scatter, conflict detection).
// In an ISA table an entry may be null ("this level has no profitable
// lowering for the op"); simd_kernels_for fills those from the scalar table
// when it resolves the level, so the table a machine runs is total. Only
// conflict_rank stays nullable. Non-null entries must be bit-identical to
// the scalar table for every input, including wrap-around arithmetic and the
// ELS scatter survivor; tests/backend_diff_test.cpp enforces that per level.
//
// Lane-kernel entries (SimdBinFn and friends) run over [lo, hi) of a larger
// vector; VectorMachine calls each once per instruction over [0, n).
// Whole-span entries take a base pointer and a length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "vm/machine.h"

namespace folvec::vm {

/// first_oob's result when every (mask-active) lane is in bounds.
inline constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

/// The order lanes of one scatter instruction are applied in. kForward and
/// kReverse avoid materializing an order vector; kExplicit carries one
/// (VectorMachine derives it from shuffle_seed for ScatterOrder::kShuffled).
enum class ScatterTraversal : std::uint8_t { kForward, kReverse, kExplicit };

/// The reference scatter semantics every table must reproduce: lanes
/// visited one at a time in `traversal` order, the last visit to an address
/// wins. The machine runs explicit (shuffled) orders through it, since they
/// have no vector shape; the tests use it as the oracle of scatter_fwd and
/// scatter_rev.
void apply_scatter_reference(std::span<Word> table, std::span<const Word> idx,
                             std::span<const Word> vals,
                             const std::uint8_t* mask,
                             ScatterTraversal traversal,
                             std::span<const std::size_t> order);

struct SimdKernels {
  SimdLevel level;
  /// Telemetry spelling of the level ("scalar", "neon", "avx2", "avx512").
  const char* name;

  // ---- lane kernels ([lo, hi) of a shared vector) ------------------------

  SimdBinFn add;
  SimdBinFn sub;
  SimdBinFn mul;
  /// Scalar-operand forms; `s` is the scalar (the shift count for shr_s,
  /// ignored by neg).
  SimdMapFn add_s;
  SimdMapFn mul_s;
  SimdMapFn and_s;
  SimdMapFn or_s;
  SimdMapFn shr_s;
  SimdMapFn neg;
  /// Floor division / Euclidean modulus by a positive scalar — the probe
  /// recalc chain of the hashing layer (`mod_scalar` on every probe round)
  /// and the serving layer's shard routing both live on these. Serial
  /// semantics exactly: q = floor(a/s); r = a - s*floor(a/s) in [0, s).
  SimdMapFn div_s;
  SimdMapFn mod_s;
  SimdCmpFn cmp_eq;
  SimdCmpFn cmp_ne;
  SimdCmpFn cmp_le;
  SimdCmpFn cmp_lt;
  SimdCmpSFn cmp_eq_s;
  SimdCmpSFn cmp_ne_s;
  SimdCmpSFn cmp_le_s;
  SimdCmpSFn cmp_lt_s;
  SimdCmpSFn cmp_ge_s;
  void (*mask_and)(std::uint8_t*, const std::uint8_t*, const std::uint8_t*,
                   std::size_t, std::size_t);
  void (*mask_or)(std::uint8_t*, const std::uint8_t*, const std::uint8_t*,
                  std::size_t, std::size_t);
  void (*mask_not)(std::uint8_t*, const std::uint8_t*, std::size_t,
                   std::size_t);
  /// o[i] = m[i] ? a[i] : b[i].
  void (*select)(Word*, const std::uint8_t*, const Word*, const Word*,
                 std::size_t, std::size_t);
  /// o[i] = m[i] ? 1 : 0.
  void (*from_mask)(Word*, const std::uint8_t*, std::size_t, std::size_t);
  /// o[i] = start + step * i (wrap-around arithmetic, exactly as serial).
  void (*iota)(Word*, Word start, Word step, std::size_t, std::size_t);
  /// o[i] = table[idx[i]]; all indices already bounds-checked.
  void (*gather)(Word*, const Word* table, const Word* idx, std::size_t,
                 std::size_t);
  /// o[i] = table[idx[i]] where m[i] != 0; inactive lanes keep o[i] (already
  /// holding the fill value) and must not touch memory — their idx may be
  /// arbitrary.
  void (*gather_masked)(Word*, const Word* table, const Word* idx,
                        const std::uint8_t* m, std::size_t, std::size_t);
  /// o[i] = table[offset + i * stride].
  void (*load_strided)(Word*, const Word* table, std::size_t offset,
                       std::size_t stride, std::size_t, std::size_t);

  // ---- whole-span entry points --------------------------------------------

  Word (*reduce_sum)(const Word*, std::size_t n);
  Word (*reduce_min)(const Word*, std::size_t n);
  Word (*reduce_max)(const Word*, std::size_t n);
  /// Sums the BYTE VALUES (serial semantics), not the nonzero count.
  std::size_t (*count_true)(const std::uint8_t*, std::size_t n);
  /// Pack-under-mask; `cap` is out's capacity in words (>= popcount(m)).
  /// Vectorized implementations may store whole groups below `cap` before
  /// overwriting the tail with packed data, so only [0, returned length)
  /// is meaningful. Returns the packed length (== popcount(m)).
  std::size_t (*compress)(Word* out, std::size_t cap, const Word*,
                          const std::uint8_t*, std::size_t n);
  /// Two-way pack; kept_cap is kept's capacity (== popcount(m) when called
  /// from the machine), rejected holds n - kept_cap words.
  void (*partition)(Word* kept, std::size_t kept_cap, Word* rejected,
                    const Word*, const std::uint8_t*, std::size_t n);
  /// Lowest (mask-active) lane with idx outside [0, table_size), or
  /// kNoLane.
  std::size_t (*first_oob)(const Word* idx, std::size_t n,
                           std::size_t table_size, const std::uint8_t* mask);
  /// ELS scatter, forward traversal: bit-identical to
  /// apply_scatter_reference(kForward). AVX-512 gets this from VPSCATTERQQ's
  /// architecturally LSB-to-MSB overlapping-store order (blocks ascending);
  /// levels without an ordered hardware scatter leave it null and run the
  /// scalar table's loop.
  void (*scatter_fwd)(Word* table, const Word* idx, const Word* vals,
                      const std::uint8_t* mask, std::size_t n);
  /// ELS scatter, reverse traversal (lane n-1 first).
  void (*scatter_rev)(Word* table, const Word* idx, const Word* vals,
                      const std::uint8_t* mask, std::size_t n);
  /// Readback half of the fused scatter_gather_eq: out[i] = (mask-active and
  /// table[idx[i]] == vals[i]); returns the survivor count. Every idx is in
  /// bounds by the time this runs (the machine's between-passes recheck).
  std::size_t (*match_eq)(std::uint8_t* out, const Word* table,
                          const Word* idx, const Word* vals,
                          const std::uint8_t* mask, std::size_t n);
  /// Hardware conflict detection (VPCONFLICTQ): rank[i] = how many earlier
  /// lanes share idx[i] — i.e. each lane's occurrence number, which IS a
  /// minimal FOL decomposition (round r = lanes with rank r). `counts` is a
  /// caller-zeroed table of one word per addressable key. Null on levels
  /// without a conflict-detection instruction; the hardware-vs-FOL1 ablation
  /// in bench/backend_compare is built on this entry.
  void (*conflict_rank)(Word* rank, const Word* idx, std::size_t n,
                        Word* counts);
};

/// The always-available reference table: plain scalar loops, every entry
/// non-null. The raw ISA tables below may hold nulls; machines get them
/// through simd_kernels_for, which fills those from this table.
const SimdKernels& simd_kernels_scalar();

#if defined(FOLVEC_HAVE_AVX2_TU)
const SimdKernels& simd_kernels_avx2();
#endif
#if defined(FOLVEC_HAVE_AVX512_TU)
const SimdKernels& simd_kernels_avx512();
#endif
#if defined(FOLVEC_HAVE_NEON_TU)
const SimdKernels& simd_kernels_neon();
#endif

}  // namespace folvec::vm

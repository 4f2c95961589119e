// AVX2 SimdKernels: 4 x int64 lanes per __m256i.
//
// Compiled with -mavx2 and the vectorizing cost model (see
// src/vm/CMakeLists.txt); nothing here runs unless the runtime dispatcher saw
// the AVX2 CPUID bit. The arithmetic, all nine compares, mask_and/mask_or and
// the reductions are lane_loops.h's loops, vectorized under these flags. The
// kernels below are the entries whose compiled loop measured slower, or that
// need an instruction a plain loop does not compile to:
//
//   * arithmetic shift right: no VPSRAQ; a logical shift ORed with sign-fill
//     bits (sign mask shifted left by 64-k) beats the compiler's emulation.
//   * mask_not / select / from_mask / iota / count_true: a byte compare,
//     mask-byte expansion, a running index vector and PSADBW byte sums.
//   * gather / gather_masked / load_strided / match_eq: VPGATHERQQ.
//   * compress: the classic movemask -> 4-bit-key permutation-LUT pack
//     (VPERMD on 32-bit pairs); groups too close to the end of the exactly
//     sized destination fall back to scalar stores.
//   * div/mod, scatter, conflict detection: null, so callers run the scalar
//     table's loops.
//
// Mask bytes cross the vector/scalar boundary through MOVMSKPD on the
// 64-bit compare results (one bit per lane).
#include "vm/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "vm/lane_loops.h"

namespace folvec::vm {

namespace {

inline __m256i load4(const Word* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store4(Word* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// One bit per 64-bit lane of a compare result (all-ones / all-zeros).
inline unsigned lane_bits(__m256i cmp) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(cmp)));
}

/// 64-bit wrap-around multiply from 32x32 partial products.
inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

/// Expands 4 mask bytes to 4 all-ones/all-zeros 64-bit lanes.
inline __m256i mask_lanes(const std::uint8_t* m) {
  std::uint32_t raw = 0;
  std::memcpy(&raw, m, 4);
  const __m256i bytes =
      _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(raw)));
  const __m256i zero = _mm256_cmpeq_epi64(bytes, _mm256_setzero_si256());
  return _mm256_xor_si256(zero, _mm256_set1_epi64x(-1));
}

inline void store_bits(std::uint8_t* o, unsigned bits) {
  o[0] = static_cast<std::uint8_t>(bits & 1U);
  o[1] = static_cast<std::uint8_t>((bits >> 1U) & 1U);
  o[2] = static_cast<std::uint8_t>((bits >> 2U) & 1U);
  o[3] = static_cast<std::uint8_t>((bits >> 3U) & 1U);
}

void k_shr_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  // Arithmetic >> k from logical >> k plus sign fill: AVX2 has no VPSRAQ.
  const int k = static_cast<int>(s);
  const __m128i cnt = _mm_cvtsi32_si128(k);
  const __m128i fill_cnt = _mm_cvtsi32_si128(64 - k);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256i x = load4(a + i);
    const __m256i logical = _mm256_srl_epi64(x, cnt);
    const __m256i sign = _mm256_cmpgt_epi64(zero, x);
    // k == 0: the fill shift count is 64, which VPSLLQ defines as zero.
    store4(o + i, _mm256_or_si256(logical, _mm256_sll_epi64(sign, fill_cnt)));
  }
  for (; i < hi; ++i) o[i] = a[i] >> k;
}

void k_mask_not(std::uint8_t* o, const std::uint8_t* a, std::size_t lo,
                std::size_t hi) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi8(1);
  std::size_t i = lo;
  for (; i + 32 <= hi; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    // (a == 0) lanes become 0xFF; AND 1 normalizes to the 0/1 bytes the
    // scalar loop produces.
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(o + i),
        _mm256_and_si256(_mm256_cmpeq_epi8(va, zero), one));
  }
  for (; i < hi; ++i) o[i] = a[i] != 0 ? 0 : 1;
}

void k_select(Word* o, const std::uint8_t* m, const Word* a, const Word* b,
              std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256i active = mask_lanes(m + i);
    store4(o + i,
           _mm256_blendv_epi8(load4(b + i), load4(a + i), active));
  }
  for (; i < hi; ++i) o[i] = m[i] != 0 ? a[i] : b[i];
}

void k_from_mask(Word* o, const std::uint8_t* m, std::size_t lo,
                 std::size_t hi) {
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    store4(o + i, _mm256_and_si256(mask_lanes(m + i), one));
  }
  for (; i < hi; ++i) o[i] = m[i] != 0 ? 1 : 0;
}

void k_iota(Word* o, Word start, Word step, std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  if (i + 4 <= hi) {
    const std::uint64_t us = static_cast<std::uint64_t>(step);
    const std::uint64_t base =
        static_cast<std::uint64_t>(start) + us * static_cast<std::uint64_t>(i);
    __m256i v = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<Word>(base)),
        mul64(_mm256_set_epi64x(3, 2, 1, 0), _mm256_set1_epi64x(step)));
    const __m256i bump = _mm256_set1_epi64x(static_cast<Word>(us * 4));
    for (; i + 4 <= hi; i += 4) {
      store4(o + i, v);
      v = _mm256_add_epi64(v, bump);
    }
  }
  for (; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(start) +
                             static_cast<std::uint64_t>(step) * i);
  }
}

void k_gather(Word* o, const Word* table, const Word* idx, std::size_t lo,
              std::size_t hi) {
  const auto* base = reinterpret_cast<const long long*>(table);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    store4(o + i, _mm256_i64gather_epi64(base, load4(idx + i), 8));
  }
  for (; i < hi; ++i) o[i] = table[static_cast<std::size_t>(idx[i])];
}

void k_gather_masked(Word* o, const Word* table, const Word* idx,
                     const std::uint8_t* m, std::size_t lo, std::size_t hi) {
  const auto* base = reinterpret_cast<const long long*>(table);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256i active = mask_lanes(m + i);
    // Masked-off lanes keep o's fill value and perform no memory access
    // (their idx may be arbitrary) — exactly VPGATHERQQ's mask semantics.
    store4(o + i, _mm256_mask_i64gather_epi64(load4(o + i), base,
                                              load4(idx + i), active, 8));
  }
  for (; i < hi; ++i) {
    if (m[i] != 0) o[i] = table[static_cast<std::size_t>(idx[i])];
  }
}

void k_load_strided(Word* o, const Word* table, std::size_t offset,
                    std::size_t stride, std::size_t lo, std::size_t hi) {
  const auto* base = reinterpret_cast<const long long*>(table);
  std::size_t i = lo;
  if (i + 4 <= hi) {
    const Word ws = static_cast<Word>(stride);
    __m256i v = _mm256_add_epi64(
        _mm256_set1_epi64x(
            static_cast<Word>(offset + i * stride)),
        mul64(_mm256_set_epi64x(3, 2, 1, 0), _mm256_set1_epi64x(ws)));
    const __m256i bump = _mm256_set1_epi64x(static_cast<Word>(stride * 4));
    for (; i + 4 <= hi; i += 4) {
      store4(o + i, _mm256_i64gather_epi64(base, v, 8));
      v = _mm256_add_epi64(v, bump);
    }
  }
  for (; i < hi; ++i) o[i] = table[offset + i * stride];
}

std::size_t k_count_true(const std::uint8_t* m, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i bytes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + i));
    // Serial semantics sum the byte VALUES; PSADBW against zero does exactly
    // that, 32 bytes per step into four 64-bit partials.
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t c = static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] +
                                           lanes[3]);
  for (; i < n; ++i) c += m[i];
  return c;
}

/// 4-bit mask key -> VPERMD control packing the selected 64-bit lanes (as
/// 32-bit pairs) to the front. Entry k lists the index pairs of k's set bits
/// in ascending lane order, then don't-cares.
const std::uint32_t kPackLut[16][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {2, 3, 0, 1, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {4, 5, 0, 1, 2, 3, 6, 7}, {0, 1, 4, 5, 2, 3, 6, 7},
    {2, 3, 4, 5, 0, 1, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {6, 7, 0, 1, 2, 3, 4, 5}, {0, 1, 6, 7, 2, 3, 4, 5},
    {2, 3, 6, 7, 0, 1, 4, 5}, {0, 1, 2, 3, 6, 7, 4, 5},
    {4, 5, 6, 7, 0, 1, 2, 3}, {0, 1, 4, 5, 6, 7, 2, 3},
    {2, 3, 4, 5, 6, 7, 0, 1}, {0, 1, 2, 3, 4, 5, 6, 7},
};

inline unsigned mask_key(const std::uint8_t* m) {
  return (m[0] != 0 ? 1U : 0U) | (m[1] != 0 ? 2U : 0U) |
         (m[2] != 0 ? 4U : 0U) | (m[3] != 0 ? 8U : 0U);
}

/// Shared pack loop: with `invert` the CLEAR-mask lanes are kept. `cap` is
/// the exact destination length; the vector path stores a full 32-byte group
/// and therefore needs 4 lanes of remaining capacity.
std::size_t pack_lanes(Word* out, std::size_t cap, const Word* v,
                       const std::uint8_t* m, std::size_t n, bool invert) {
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 4 <= n && k + 4 <= cap; i += 4) {
    const unsigned key =
        invert ? (~mask_key(m + i) & 0xFU) : mask_key(m + i);
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kPackLut[key]));
    const __m256i packed =
        _mm256_permutevar8x32_epi32(load4(v + i), perm);
    store4(out + k, packed);
    k += static_cast<std::size_t>(_mm_popcnt_u32(key));
  }
  for (; i < n; ++i) {
    const bool keep = invert ? m[i] == 0 : m[i] != 0;
    if (keep) out[k++] = v[i];
  }
  return k;
}

std::size_t k_compress(Word* out, std::size_t cap, const Word* v,
                       const std::uint8_t* m, std::size_t n) {
  // pack_lanes guards its 32-byte group stores against the destination
  // capacity (exactly popcount(m) when called via compress_into).
  return pack_lanes(out, cap, v, m, n, /*invert=*/false);
}

void k_partition(Word* kept, std::size_t kept_cap, Word* rejected,
                 const Word* v, const std::uint8_t* m, std::size_t n) {
  pack_lanes(kept, kept_cap, v, m, n, /*invert=*/false);
  pack_lanes(rejected, n - kept_cap, v, m, n, /*invert=*/true);
}

std::size_t k_first_oob(const Word* idx, std::size_t n, std::size_t table_size,
                        const std::uint8_t* mask) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i limit = _mm256_set1_epi64x(static_cast<Word>(table_size));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = load4(idx + i);
    // bad = idx < 0 OR idx >= table_size (signed compares; table_size fits
    // a Word because it counts addressable words of live memory).
    __m256i bad = _mm256_or_si256(
        _mm256_cmpgt_epi64(zero, v),
        _mm256_xor_si256(_mm256_cmpgt_epi64(limit, v),
                         _mm256_set1_epi64x(-1)));
    if (mask != nullptr) bad = _mm256_and_si256(bad, mask_lanes(mask + i));
    const unsigned bits = lane_bits(bad);
    if (bits != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(bits));
    }
  }
  for (; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    if (idx[i] < 0 || static_cast<std::size_t>(idx[i]) >= table_size) return i;
  }
  return kNoLane;
}

std::size_t k_match_eq(std::uint8_t* out, const Word* table, const Word* idx,
                       const Word* vals, const std::uint8_t* mask,
                       std::size_t n) {
  // Every idx is in bounds when the readback runs (machine contract), so
  // gathering masked-off lanes is safe — their result is ANDed away.
  const auto* base = reinterpret_cast<const long long*>(table);
  std::size_t survivors = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i got = _mm256_i64gather_epi64(base, load4(idx + i), 8);
    __m256i hit = _mm256_cmpeq_epi64(got, load4(vals + i));
    if (mask != nullptr) hit = _mm256_and_si256(hit, mask_lanes(mask + i));
    const unsigned bits = lane_bits(hit);
    store_bits(out + i, bits);
    survivors += static_cast<std::size_t>(_mm_popcnt_u32(bits));
  }
  for (; i < n; ++i) {
    const bool active = mask == nullptr || mask[i] != 0;
    const std::uint8_t hit =
        active && table[static_cast<std::size_t>(idx[i])] == vals[i] ? 1 : 0;
    out[i] = hit;
    survivors += hit;
  }
  return survivors;
}

}  // namespace

const SimdKernels& simd_kernels_avx2() {
  using Loops = LaneLoops<SimdLevel::kAvx2>;
  static const SimdKernels k = {
      SimdLevel::kAvx2,
      "avx2",
      Loops::add,
      Loops::sub,
      Loops::mul,
      Loops::add_s,
      Loops::mul_s,
      Loops::and_s,
      Loops::or_s,
      k_shr_s,
      Loops::neg,
      // Magic-multiply div/mod needs a 64-bit mulhi; without AVX-512's
      // mask registers the four-piece emulation loses to the serial loop.
      nullptr,
      nullptr,
      Loops::cmp_eq,
      Loops::cmp_ne,
      Loops::cmp_le,
      Loops::cmp_lt,
      Loops::cmp_eq_s,
      Loops::cmp_ne_s,
      Loops::cmp_le_s,
      Loops::cmp_lt_s,
      Loops::cmp_ge_s,
      Loops::mask_and,
      Loops::mask_or,
      k_mask_not,
      k_select,
      k_from_mask,
      k_iota,
      k_gather,
      k_gather_masked,
      k_load_strided,
      Loops::reduce_sum,
      Loops::reduce_min,
      Loops::reduce_max,
      k_count_true,
      k_compress,
      k_partition,
      k_first_oob,
      // AVX2 has no scatter instruction: serialized-duplicate fallback.
      nullptr,
      nullptr,
      k_match_eq,
      // No VPCONFLICTQ below AVX-512 CD.
      nullptr,
  };
  return k;
}

}  // namespace folvec::vm

#else  // !defined(__AVX2__)

// The build system only compiles this TU with -mavx2; a stray inclusion in a
// non-AVX2 compile would otherwise fail at the first intrinsic.
namespace folvec::vm {}

#endif

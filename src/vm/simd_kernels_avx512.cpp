// AVX-512 SimdKernels: 8 x int64 lanes per __m512i.
//
// Compiled with -mavx512f -mavx512cd -mavx512dq -mavx512bw -mavx512vl and the
// vectorizing cost model (see src/vm/CMakeLists.txt); the runtime dispatcher
// only hands this table out when all five CPUID bits are present. The
// arithmetic, the two-vector compares, mask_and/mask_or and the reductions
// are lane_loops.h's loops, vectorized under these flags. The kernels below
// are the entries whose compiled loop measured slower (scalar-operand
// compares, mask_not, select, from_mask, iota, count_true), or that need an
// instruction a plain loop does not compile to:
//
//   * div/mod by an invariant scalar: a magic-multiply high product replaces
//     the divide (no SIMD level has a 64-bit integer divide).
//   * ordered scatter: VPSCATTERQQ architecturally resolves overlapping
//     stores LSB-to-MSB, so issuing 8-lane blocks in ascending order IS the
//     forward ELS traversal, and descending blocks with lane-reversed
//     registers IS the reverse traversal — exclusive label storing without
//     serializing duplicates.
//   * conflict detection: VPCONFLICTQ gives each lane a bitmask of earlier
//     lanes holding the same key; its popcount is the lane's in-block
//     occurrence rank, which the conflict_rank entry turns into a full FOL
//     decomposition in a single pass. This is the hardware half of the
//     fol1_hw_conflict ablation in bench/backend_compare.
//   * compress: VPCOMPRESSQ's memory form stores exactly popcount(mask)
//     words, so packing into an exactly sized destination needs no tail
//     guard at all.
//
// Mask bytes cross into __mmask8 via VL+BW byte compares; back out via
// masked byte broadcasts.
#include "vm/simd_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512CD__) && defined(__AVX512DQ__) && \
    defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <bit>

#include "vm/lane_loops.h"

namespace folvec::vm {

namespace {

inline __m512i load8(const Word* p) { return _mm512_loadu_si512(p); }

inline void store8(Word* p, __m512i v) { _mm512_storeu_si512(p, v); }

/// 8 mask bytes -> one bit per lane. The upper 8 bytes of the 128-bit load
/// are zero, so the upper compare bits are zero too.
inline __mmask8 mask_from_bytes(const std::uint8_t* m) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(m));
  return static_cast<__mmask8>(
      _mm_cmpneq_epi8_mask(bytes, _mm_setzero_si128()));
}

/// One bit per lane -> 8 normalized 0/1 mask bytes.
inline void bytes_from_mask(std::uint8_t* o, __mmask8 k) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(o),
                   _mm_maskz_set1_epi8(static_cast<__mmask16>(k), 1));
}

/// Bit-reversal of an 8-bit lane mask (lane i <-> lane 7-i), for the
/// reverse-traversal scatter.
inline __mmask8 reverse_mask(__mmask8 k) {
  unsigned x = static_cast<unsigned>(k);
  x = ((x & 0xF0U) >> 4) | ((x & 0x0FU) << 4);
  x = ((x & 0xCCU) >> 2) | ((x & 0x33U) << 2);
  x = ((x & 0xAAU) >> 1) | ((x & 0x55U) << 1);
  return static_cast<__mmask8>(x);
}

// ---- div/mod by a positive scalar: magic-multiply lowering ------------------
//
// There is no 64-bit integer divide instruction at any SIMD level, but the
// divisor is loop-invariant, so the scalar unit computes a (multiplier,
// shift) pair once per call (Hacker's Delight 10-4, widened to 64 bits) and
// the vector loop replaces the divide with a high multiply + shift. The
// truncated quotient is then floor-fixed through its remainder, which also
// IS the Euclidean modulus — one core serves both kernels.

/// Magic pair for signed division by d >= 2: the truncated quotient is
/// SRA(mulhi(mul, n) + (mul < 0 ? n : 0), shift), plus that value's sign bit.
struct SignedMagic {
  Word mul;
  int shift;
};

SignedMagic signed_magic(Word d) {
  const std::uint64_t two63 = 0x8000000000000000ULL;
  const auto ad = static_cast<std::uint64_t>(d);
  const std::uint64_t anc = two63 - 1 - (two63 - 1) % ad;
  int p = 63;
  std::uint64_t q1 = two63 / anc;
  std::uint64_t r1 = two63 - q1 * anc;
  std::uint64_t q2 = two63 / ad;
  std::uint64_t r2 = two63 - q2 * ad;
  std::uint64_t delta = 0;
  do {
    ++p;
    q1 *= 2;
    r1 *= 2;
    if (r1 >= anc) {
      ++q1;
      r1 -= anc;
    }
    q2 *= 2;
    r2 *= 2;
    if (r2 >= ad) {
      ++q2;
      r2 -= ad;
    }
    delta = ad - r2;
  } while (q1 < delta || (q1 == delta && r1 == 0));
  return SignedMagic{static_cast<Word>(q2 + 1), p - 64};
}

/// Unsigned high 64 of a 64x64 multiply from four 32-bit partial products
/// (VPMULUDQ); AVX-512 has no 64-bit mulhi instruction.
inline __m512i umulhi8(__m512i a, __m512i b) {
  const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i hl = _mm512_mul_epu32(a_hi, b);
  const __m512i lh = _mm512_mul_epu32(a, b_hi);
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  const __m512i cross = _mm512_add_epi64(
      _mm512_add_epi64(_mm512_srli_epi64(ll, 32), _mm512_and_si512(hl, lo32)),
      _mm512_and_si512(lh, lo32));
  return _mm512_add_epi64(
      _mm512_add_epi64(hh, _mm512_srli_epi64(hl, 32)),
      _mm512_add_epi64(_mm512_srli_epi64(lh, 32),
                       _mm512_srli_epi64(cross, 32)));
}

/// Signed high multiply: correct the unsigned one by the sign of each input.
inline __m512i smulhi8(__m512i a, __m512i b) {
  __m512i hi = umulhi8(a, b);
  hi = _mm512_mask_sub_epi64(hi, _mm512_movepi64_mask(a), hi, b);
  hi = _mm512_mask_sub_epi64(hi, _mm512_movepi64_mask(b), hi, a);
  return hi;
}

struct DivMod8 {
  __m512i q;
  __m512i r;
};

/// Floor quotient and Euclidean remainder of 8 lanes by the invariant d.
inline DivMod8 divmod8(__m512i n, const SignedMagic& mg, __m512i vd,
                       __m512i vmul) {
  __m512i q0 = smulhi8(vmul, n);
  if (mg.mul < 0) q0 = _mm512_add_epi64(q0, n);
  __m512i q = _mm512_sra_epi64(q0, _mm_cvtsi32_si128(mg.shift));
  // Adding the sign bit rounds the magic result toward zero (truncation).
  q = _mm512_add_epi64(q, _mm512_srli_epi64(q, 63));
  __m512i r = _mm512_sub_epi64(n, _mm512_mullo_epi64(q, vd));
  // r in (-d, d); one masked fixup turns truncation into floor/Euclid.
  const __mmask8 neg = _mm512_movepi64_mask(r);
  q = _mm512_mask_sub_epi64(q, neg, q, _mm512_set1_epi64(1));
  r = _mm512_mask_add_epi64(r, neg, r, vd);
  return DivMod8{q, r};
}

void k_div_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  if (s == 1) {
    for (; i + 8 <= hi; i += 8) store8(o + i, load8(a + i));
    for (; i < hi; ++i) o[i] = a[i];
    return;
  }
  if ((s & (s - 1)) == 0) {
    // SRA floors negative operands, which is exactly the div contract.
    const int k = std::countr_zero(static_cast<std::uint64_t>(s));
    const __m128i cnt = _mm_cvtsi32_si128(k);
    for (; i + 8 <= hi; i += 8) {
      store8(o + i, _mm512_sra_epi64(load8(a + i), cnt));
    }
    for (; i < hi; ++i) o[i] = a[i] >> k;
    return;
  }
  const SignedMagic mg = signed_magic(s);
  const __m512i vd = _mm512_set1_epi64(s);
  const __m512i vmul = _mm512_set1_epi64(mg.mul);
  for (; i + 8 <= hi; i += 8) {
    store8(o + i, divmod8(load8(a + i), mg, vd, vmul).q);
  }
  for (; i < hi; ++i) {
    Word q = a[i] / s;
    if ((a[i] % s) != 0 && (a[i] < 0)) --q;
    o[i] = q;
  }
}

void k_mod_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  if (s == 1) {
    for (; i + 8 <= hi; i += 8) store8(o + i, _mm512_setzero_si512());
    for (; i < hi; ++i) o[i] = 0;
    return;
  }
  if ((s & (s - 1)) == 0) {
    // Masking with d-1 is already the Euclidean (non-negative) remainder.
    const __m512i vm = _mm512_set1_epi64(s - 1);
    for (; i + 8 <= hi; i += 8) {
      store8(o + i, _mm512_and_si512(load8(a + i), vm));
    }
    for (; i < hi; ++i) o[i] = a[i] & (s - 1);
    return;
  }
  const SignedMagic mg = signed_magic(s);
  const __m512i vd = _mm512_set1_epi64(s);
  const __m512i vmul = _mm512_set1_epi64(mg.mul);
  for (; i + 8 <= hi; i += 8) {
    store8(o + i, divmod8(load8(a + i), mg, vd, vmul).r);
  }
  for (; i < hi; ++i) {
    Word r = a[i] % s;
    if (r < 0) r += s;
    o[i] = r;
  }
}

void k_cmp_eq_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const __m512i vs = _mm512_set1_epi64(s);
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    bytes_from_mask(o + i, _mm512_cmpeq_epi64_mask(load8(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] == s ? 1 : 0;
}

void k_cmp_ne_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const __m512i vs = _mm512_set1_epi64(s);
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    bytes_from_mask(o + i, _mm512_cmpneq_epi64_mask(load8(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] != s ? 1 : 0;
}

void k_cmp_le_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const __m512i vs = _mm512_set1_epi64(s);
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    bytes_from_mask(o + i, _mm512_cmple_epi64_mask(load8(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] <= s ? 1 : 0;
}

void k_cmp_lt_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const __m512i vs = _mm512_set1_epi64(s);
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    bytes_from_mask(o + i, _mm512_cmplt_epi64_mask(load8(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] < s ? 1 : 0;
}

void k_cmp_ge_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const __m512i vs = _mm512_set1_epi64(s);
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    bytes_from_mask(o + i, _mm512_cmpge_epi64_mask(load8(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] >= s ? 1 : 0;
}

void k_mask_not(std::uint8_t* o, const std::uint8_t* a, std::size_t lo,
                std::size_t hi) {
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = lo;
  for (; i + 64 <= hi; i += 64) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __mmask64 z = _mm512_cmpeq_epi8_mask(va, zero);
    _mm512_storeu_si512(o + i, _mm512_maskz_set1_epi8(z, 1));
  }
  for (; i < hi; ++i) o[i] = a[i] != 0 ? 0 : 1;
}

void k_select(Word* o, const std::uint8_t* m, const Word* a, const Word* b,
              std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __mmask8 k = mask_from_bytes(m + i);
    store8(o + i, _mm512_mask_blend_epi64(k, load8(b + i), load8(a + i)));
  }
  for (; i < hi; ++i) o[i] = m[i] != 0 ? a[i] : b[i];
}

void k_from_mask(Word* o, const std::uint8_t* m, std::size_t lo,
                 std::size_t hi) {
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    store8(o + i, _mm512_maskz_set1_epi64(mask_from_bytes(m + i), 1));
  }
  for (; i < hi; ++i) o[i] = m[i] != 0 ? 1 : 0;
}

void k_iota(Word* o, Word start, Word step, std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  if (i + 8 <= hi) {
    const std::uint64_t us = static_cast<std::uint64_t>(step);
    const std::uint64_t base =
        static_cast<std::uint64_t>(start) + us * static_cast<std::uint64_t>(i);
    __m512i v = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<Word>(base)),
        _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                           _mm512_set1_epi64(step)));
    const __m512i bump = _mm512_set1_epi64(static_cast<Word>(us * 8));
    for (; i + 8 <= hi; i += 8) {
      store8(o + i, v);
      v = _mm512_add_epi64(v, bump);
    }
  }
  for (; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(start) +
                             static_cast<std::uint64_t>(step) * i);
  }
}

void k_gather(Word* o, const Word* table, const Word* idx, std::size_t lo,
              std::size_t hi) {
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    store8(o + i, _mm512_i64gather_epi64(load8(idx + i), table, 8));
  }
  for (; i < hi; ++i) o[i] = table[static_cast<std::size_t>(idx[i])];
}

void k_gather_masked(Word* o, const Word* table, const Word* idx,
                     const std::uint8_t* m, std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __mmask8 k = mask_from_bytes(m + i);
    // Masked-off lanes keep o's fill value and touch no memory — their idx
    // may be arbitrary.
    store8(o + i, _mm512_mask_i64gather_epi64(load8(o + i), k,
                                              load8(idx + i), table, 8));
  }
  for (; i < hi; ++i) {
    if (m[i] != 0) o[i] = table[static_cast<std::size_t>(idx[i])];
  }
}

void k_load_strided(Word* o, const Word* table, std::size_t offset,
                    std::size_t stride, std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  if (i + 8 <= hi) {
    const Word ws = static_cast<Word>(stride);
    __m512i v = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<Word>(offset + i * stride)),
        _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                           _mm512_set1_epi64(ws)));
    const __m512i bump = _mm512_set1_epi64(static_cast<Word>(stride * 8));
    for (; i + 8 <= hi; i += 8) {
      store8(o + i, _mm512_i64gather_epi64(v, table, 8));
      v = _mm512_add_epi64(v, bump);
    }
  }
  for (; i < hi; ++i) o[i] = table[offset + i * stride];
}

std::size_t k_count_true(const std::uint8_t* m, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i bytes = _mm512_loadu_si512(m + i);
    // Serial semantics sum the byte VALUES; VPSADBW against zero does that,
    // 64 bytes per step into eight 64-bit partials.
    acc = _mm512_add_epi64(acc, _mm512_sad_epu8(bytes, zero));
  }
  std::size_t c =
      static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) c += m[i];
  return c;
}

std::size_t k_compress(Word* out, std::size_t /*cap*/, const Word* v,
                       const std::uint8_t* m, std::size_t n) {
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 active = mask_from_bytes(m + i);
    // VPCOMPRESSQ's memory form writes exactly popcount(active) words, so
    // the exactly sized destination never sees an out-of-bounds store.
    _mm512_mask_compressstoreu_epi64(out + k, active, load8(v + i));
    k += static_cast<std::size_t>(
        _mm_popcnt_u32(static_cast<unsigned>(active)));
  }
  for (; i < n; ++i) {
    if (m[i] != 0) out[k++] = v[i];
  }
  return k;
}

void k_partition(Word* kept, std::size_t /*kept_cap*/, Word* rejected,
                 const Word* v, const std::uint8_t* m, std::size_t n) {
  std::size_t k = 0;
  std::size_t r = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 active = mask_from_bytes(m + i);
    const __m512i x = load8(v + i);
    _mm512_mask_compressstoreu_epi64(kept + k, active, x);
    _mm512_mask_compressstoreu_epi64(
        rejected + r, static_cast<__mmask8>(~active), x);
    const std::size_t taken = static_cast<std::size_t>(
        _mm_popcnt_u32(static_cast<unsigned>(active)));
    k += taken;
    r += 8 - taken;
  }
  for (; i < n; ++i) {
    if (m[i] != 0) {
      kept[k++] = v[i];
    } else {
      rejected[r++] = v[i];
    }
  }
}

std::size_t k_first_oob(const Word* idx, std::size_t n, std::size_t table_size,
                        const std::uint8_t* mask) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i limit = _mm512_set1_epi64(static_cast<Word>(table_size));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = load8(idx + i);
    __mmask8 bad = static_cast<__mmask8>(
        _mm512_cmplt_epi64_mask(v, zero) |
        _mm512_cmpge_epi64_mask(v, limit));
    if (mask != nullptr) {
      bad = static_cast<__mmask8>(bad & mask_from_bytes(mask + i));
    }
    if (bad != 0) {
      return i + static_cast<std::size_t>(
                     std::countr_zero(static_cast<unsigned>(bad)));
    }
  }
  for (; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    if (idx[i] < 0 || static_cast<std::size_t>(idx[i]) >= table_size) return i;
  }
  return kNoLane;
}

void k_scatter_fwd(Word* table, const Word* idx, const Word* vals,
                   const std::uint8_t* mask, std::size_t n) {
  const __mmask8 all = static_cast<__mmask8>(0xFF);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 active =
        mask != nullptr ? mask_from_bytes(mask + i) : all;
    // VPSCATTERQQ resolves overlapping stores LSB-to-MSB: the highest
    // duplicate lane wins, which with ascending blocks is exactly the
    // forward ELS traversal.
    _mm512_mask_i64scatter_epi64(table, active, load8(idx + i),
                                 load8(vals + i), 8);
  }
  for (; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    table[static_cast<std::size_t>(idx[i])] = vals[i];
  }
}

void k_scatter_rev(Word* table, const Word* idx, const Word* vals,
                   const std::uint8_t* mask, std::size_t n) {
  // Reverse traversal: the tail block first (scalar, descending), then full
  // blocks descending with lanes reversed inside each register so the
  // LSB-to-MSB overlap rule yields "lowest original lane wins per block".
  const std::size_t full = n / 8 * 8;
  for (std::size_t i = n; i > full; --i) {
    const std::size_t lane = i - 1;
    if (mask != nullptr && mask[lane] == 0) continue;
    table[static_cast<std::size_t>(idx[lane])] = vals[lane];
  }
  const __m512i rev = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __mmask8 all = static_cast<__mmask8>(0xFF);
  for (std::size_t i = full; i > 0; i -= 8) {
    const std::size_t base = i - 8;
    const __mmask8 active =
        mask != nullptr ? reverse_mask(mask_from_bytes(mask + base)) : all;
    _mm512_mask_i64scatter_epi64(
        table, active, _mm512_permutexvar_epi64(rev, load8(idx + base)),
        _mm512_permutexvar_epi64(rev, load8(vals + base)), 8);
  }
}

std::size_t k_match_eq(std::uint8_t* out, const Word* table, const Word* idx,
                       const Word* vals, const std::uint8_t* mask,
                       std::size_t n) {
  // Every idx is in bounds when the readback runs (machine contract), so
  // gathering masked-off lanes is safe — their result is masked away.
  std::size_t survivors = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i got = _mm512_i64gather_epi64(load8(idx + i), table, 8);
    __mmask8 hit = _mm512_cmpeq_epi64_mask(got, load8(vals + i));
    if (mask != nullptr) {
      hit = static_cast<__mmask8>(hit & mask_from_bytes(mask + i));
    }
    bytes_from_mask(out + i, hit);
    survivors += static_cast<std::size_t>(
        _mm_popcnt_u32(static_cast<unsigned>(hit)));
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

/// Per-64-bit-lane popcount without VPOPCNTDQ: SWAR nibble reduction, then
/// VPSADBW sums the bytes of each 64-bit lane.
inline __m512i popcount64(__m512i x) {
  const __m512i m1 = _mm512_set1_epi64(0x5555555555555555LL);
  const __m512i m2 = _mm512_set1_epi64(0x3333333333333333LL);
  const __m512i m4 = _mm512_set1_epi64(0x0F0F0F0F0F0F0F0FLL);
  x = _mm512_sub_epi64(x, _mm512_and_si512(_mm512_srli_epi64(x, 1), m1));
  x = _mm512_add_epi64(_mm512_and_si512(x, m2),
                       _mm512_and_si512(_mm512_srli_epi64(x, 2), m2));
  x = _mm512_and_si512(_mm512_add_epi64(x, _mm512_srli_epi64(x, 4)), m4);
  return _mm512_sad_epu8(x, _mm512_setzero_si512());
}

void k_conflict_rank(Word* rank, const Word* idx, std::size_t n,
                     Word* counts) {
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = load8(idx + i);
    // VPCONFLICTQ: lane j gets a bitmask of lanes < j with the same key;
    // its popcount is j's occurrence number WITHIN the block.
    const __m512i within = popcount64(_mm512_conflict_epi64(v));
    // Occurrences BEFORE the block come from the running counts table.
    const __m512i base = _mm512_i64gather_epi64(v, counts, 8);
    const __m512i r = _mm512_add_epi64(base, within);
    store8(rank + i, r);
    // Writing rank+1 back with the ordered forward scatter makes the last
    // duplicate win, leaving counts[key] = total occurrences so far.
    _mm512_i64scatter_epi64(counts, v, _mm512_add_epi64(r, one), 8);
  }
  for (; i < n; ++i) {
    rank[i] = counts[static_cast<std::size_t>(idx[i])]++;
  }
}

}  // namespace

const SimdKernels& simd_kernels_avx512() {
  using Loops = LaneLoops<SimdLevel::kAvx512>;
  static const SimdKernels k = {
      SimdLevel::kAvx512,
      "avx512",
      Loops::add,
      Loops::sub,
      Loops::mul,
      Loops::add_s,
      Loops::mul_s,
      Loops::and_s,
      Loops::or_s,
      Loops::shr_s,
      Loops::neg,
      k_div_s,
      k_mod_s,
      Loops::cmp_eq,
      Loops::cmp_ne,
      Loops::cmp_le,
      Loops::cmp_lt,
      k_cmp_eq_s,
      k_cmp_ne_s,
      k_cmp_le_s,
      k_cmp_lt_s,
      k_cmp_ge_s,
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
      k_scatter_fwd,
      k_scatter_rev,
      k_match_eq,
      k_conflict_rank,
  };
  return k;
}

}  // namespace folvec::vm

#else  // missing one of F/CD/DQ/BW/VL

namespace folvec::vm {}

#endif

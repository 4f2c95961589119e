// NEON SimdKernels: 2 x int64 lanes per int64x2_t.
//
// aarch64 only. NEON's 64-bit integer support is narrow — no 64-bit
// multiply, no gather/scatter, no compress — so this table is deliberately
// sparse: the populated entries are the elementwise/mask ops where two-lane
// vectors still beat scalar code, and everything else stays null to take
// the scalar fallback. Notable mappings:
//
//   * shifts: VSHL with a negative count register is NEON's right shift, and
//     the signed variant is arithmetic — exactly the `>> k` semantics.
//   * select: VBSL on a lane mask built by comparing mask bytes to zero.
//   * count_true: VADDLV across widened byte sums (serial semantics sum the
//     byte values).
#include "vm/simd_kernels.h"

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

namespace folvec::vm {

namespace {

inline int64x2_t load2(const Word* p) {
  return vld1q_s64(reinterpret_cast<const std::int64_t*>(p));
}

inline void store2(Word* p, int64x2_t v) {
  vst1q_s64(reinterpret_cast<std::int64_t*>(p), v);
}

/// Expands 2 mask bytes to all-ones/all-zeros 64-bit lanes.
inline uint64x2_t mask_lanes(const std::uint8_t* m) {
  const uint64x2_t raw = {static_cast<std::uint64_t>(m[0]),
                          static_cast<std::uint64_t>(m[1])};
  return vtstq_u64(raw, raw);
}

void k_add(Word* o, const Word* a, const Word* b, std::size_t lo,
           std::size_t hi) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store2(o + i, vaddq_s64(load2(a + i), load2(b + i)));
  }
  for (; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) +
                             static_cast<std::uint64_t>(b[i]));
  }
}

void k_sub(Word* o, const Word* a, const Word* b, std::size_t lo,
           std::size_t hi) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store2(o + i, vsubq_s64(load2(a + i), load2(b + i)));
  }
  for (; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) -
                             static_cast<std::uint64_t>(b[i]));
  }
}

void k_add_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  const int64x2_t vs = vdupq_n_s64(s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) store2(o + i, vaddq_s64(load2(a + i), vs));
  for (; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) +
                             static_cast<std::uint64_t>(s));
  }
}

void k_and_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  const int64x2_t vs = vdupq_n_s64(s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) store2(o + i, vandq_s64(load2(a + i), vs));
  for (; i < hi; ++i) o[i] = a[i] & s;
}

void k_or_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  const int64x2_t vs = vdupq_n_s64(s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) store2(o + i, vorrq_s64(load2(a + i), vs));
  for (; i < hi; ++i) o[i] = a[i] | s;
}

void k_shr_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  // Signed VSHL with a negative count is NEON's arithmetic right shift.
  const int64x2_t cnt = vdupq_n_s64(-s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) store2(o + i, vshlq_s64(load2(a + i), cnt));
  for (; i < hi; ++i) o[i] = a[i] >> s;
}

void k_neg(Word* o, const Word* a, Word /*s*/, std::size_t lo,
           std::size_t hi) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) store2(o + i, vnegq_s64(load2(a + i)));
  for (; i < hi; ++i) {
    o[i] = static_cast<Word>(std::uint64_t{0} -
                             static_cast<std::uint64_t>(a[i]));
  }
}

inline void store_bits(std::uint8_t* o, uint64x2_t cmp) {
  o[0] = vgetq_lane_u64(cmp, 0) != 0 ? 1 : 0;
  o[1] = vgetq_lane_u64(cmp, 1) != 0 ? 1 : 0;
}

void k_cmp_eq(std::uint8_t* o, const Word* a, const Word* b, std::size_t lo,
              std::size_t hi) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store_bits(o + i, vceqq_s64(load2(a + i), load2(b + i)));
  }
  for (; i < hi; ++i) o[i] = a[i] == b[i] ? 1 : 0;
}

void k_cmp_ne(std::uint8_t* o, const Word* a, const Word* b, std::size_t lo,
              std::size_t hi) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const uint64x2_t eq = vceqq_s64(load2(a + i), load2(b + i));
    o[i] = vgetq_lane_u64(eq, 0) != 0 ? 0 : 1;
    o[i + 1] = vgetq_lane_u64(eq, 1) != 0 ? 0 : 1;
  }
  for (; i < hi; ++i) o[i] = a[i] != b[i] ? 1 : 0;
}

void k_cmp_le(std::uint8_t* o, const Word* a, const Word* b, std::size_t lo,
              std::size_t hi) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store_bits(o + i, vcleq_s64(load2(a + i), load2(b + i)));
  }
  for (; i < hi; ++i) o[i] = a[i] <= b[i] ? 1 : 0;
}

void k_cmp_lt(std::uint8_t* o, const Word* a, const Word* b, std::size_t lo,
              std::size_t hi) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store_bits(o + i, vcltq_s64(load2(a + i), load2(b + i)));
  }
  for (; i < hi; ++i) o[i] = a[i] < b[i] ? 1 : 0;
}

void k_cmp_eq_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const int64x2_t vs = vdupq_n_s64(s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store_bits(o + i, vceqq_s64(load2(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] == s ? 1 : 0;
}

void k_cmp_ne_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const int64x2_t vs = vdupq_n_s64(s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const uint64x2_t eq = vceqq_s64(load2(a + i), vs);
    o[i] = vgetq_lane_u64(eq, 0) != 0 ? 0 : 1;
    o[i + 1] = vgetq_lane_u64(eq, 1) != 0 ? 0 : 1;
  }
  for (; i < hi; ++i) o[i] = a[i] != s ? 1 : 0;
}

void k_cmp_le_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const int64x2_t vs = vdupq_n_s64(s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store_bits(o + i, vcleq_s64(load2(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] <= s ? 1 : 0;
}

void k_cmp_lt_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const int64x2_t vs = vdupq_n_s64(s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store_bits(o + i, vcltq_s64(load2(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] < s ? 1 : 0;
}

void k_cmp_ge_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  const int64x2_t vs = vdupq_n_s64(s);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store_bits(o + i, vcgeq_s64(load2(a + i), vs));
  }
  for (; i < hi; ++i) o[i] = a[i] >= s ? 1 : 0;
}

void k_mask_and(std::uint8_t* o, const std::uint8_t* a, const std::uint8_t* b,
                std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  for (; i + 16 <= hi; i += 16) {
    vst1q_u8(o + i, vandq_u8(vld1q_u8(a + i), vld1q_u8(b + i)));
  }
  for (; i < hi; ++i) o[i] = static_cast<std::uint8_t>(a[i] & b[i]);
}

void k_mask_or(std::uint8_t* o, const std::uint8_t* a, const std::uint8_t* b,
               std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  for (; i + 16 <= hi; i += 16) {
    vst1q_u8(o + i, vorrq_u8(vld1q_u8(a + i), vld1q_u8(b + i)));
  }
  for (; i < hi; ++i) o[i] = static_cast<std::uint8_t>(a[i] | b[i]);
}

void k_mask_not(std::uint8_t* o, const std::uint8_t* a, std::size_t lo,
                std::size_t hi) {
  const uint8x16_t zero = vdupq_n_u8(0);
  const uint8x16_t one = vdupq_n_u8(1);
  std::size_t i = lo;
  for (; i + 16 <= hi; i += 16) {
    vst1q_u8(o + i, vandq_u8(vceqq_u8(vld1q_u8(a + i), zero), one));
  }
  for (; i < hi; ++i) o[i] = a[i] != 0 ? 0 : 1;
}

void k_select(Word* o, const std::uint8_t* m, const Word* a, const Word* b,
              std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store2(o + i,
           vbslq_s64(mask_lanes(m + i), load2(a + i), load2(b + i)));
  }
  for (; i < hi; ++i) o[i] = m[i] != 0 ? a[i] : b[i];
}

void k_from_mask(Word* o, const std::uint8_t* m, std::size_t lo,
                 std::size_t hi) {
  const int64x2_t one = vdupq_n_s64(1);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    store2(o + i,
           vandq_s64(vreinterpretq_s64_u64(mask_lanes(m + i)), one));
  }
  for (; i < hi; ++i) o[i] = m[i] != 0 ? 1 : 0;
}

Word k_reduce_sum(const Word* v, std::size_t n) {
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vaddq_s64(acc, load2(v + i));
  Word total = vaddvq_s64(acc);
  for (; i < n; ++i) {
    total = static_cast<Word>(static_cast<std::uint64_t>(total) +
                              static_cast<std::uint64_t>(v[i]));
  }
  return total;
}

std::size_t k_count_true(const std::uint8_t* m, std::size_t n) {
  std::size_t c = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Serial semantics sum the byte VALUES; widen-and-fold does that.
    c += static_cast<std::size_t>(vaddlvq_u8(vld1q_u8(m + i)));
  }
  for (; i < n; ++i) c += m[i];
  return c;
}

}  // namespace

const SimdKernels& simd_kernels_neon() {
  static const SimdKernels k = {
      SimdLevel::kNeon,
      "neon",
      k_add,
      k_sub,
      // No 64-bit vector multiply in NEON.
      nullptr,
      k_add_s,
      nullptr,
      k_and_s,
      k_or_s,
      k_shr_s,
      k_neg,
      // No 64-bit mulhi on NEON either; div/mod stay on the serial loop.
      nullptr,
      nullptr,
      k_cmp_eq,
      k_cmp_ne,
      k_cmp_le,
      k_cmp_lt,
      k_cmp_eq_s,
      k_cmp_ne_s,
      k_cmp_le_s,
      k_cmp_lt_s,
      k_cmp_ge_s,
      k_mask_and,
      k_mask_or,
      k_mask_not,
      k_select,
      k_from_mask,
      // iota: scalar loop is already optimal at 2 lanes.
      nullptr,
      // No gather/scatter addressing modes in NEON.
      nullptr,
      nullptr,
      nullptr,
      k_reduce_sum,
      // min/max: leave to the scalar fallback (2-lane horizontal folds do
      // not pay for themselves).
      nullptr,
      nullptr,
      k_count_true,
      // No compress/expand permutes worth using at 2 lanes.
      nullptr,
      nullptr,
      nullptr,
      nullptr,
      nullptr,
      nullptr,
      // No conflict-detection instruction.
      nullptr,
  };
  return k;
}

}  // namespace folvec::vm

#else  // !aarch64

namespace folvec::vm {}

#endif

// The lane loops: one plain loop per SimdKernels entry, the single source of
// every loop a kernel table runs, and the reference semantics. The scalar
// table uses all of them; the AVX2 and AVX-512 tables use each one that,
// vectorized by the compiler under their TU's flags, measures no slower than
// hand intrinsics. Arithmetic wraps modulo 2^64 through uint64_t, so an
// overflowing lane is defined behaviour and matches the vector instructions.
//
// Linkage: each kernel TU instantiates LaneLoops with its own level, and no
// other TU includes this header. Non-template inline functions would be
// emitted by every TU under different target flags and merged by the linker
// into one copy, so the scalar table could run AVX-512 instructions on a host
// without them. SimdDispatchTest.KernelTablesCarryTheirOwnLevelAndName
// checks that the tables' shared entries are distinct functions.
#pragma once

#include <cstddef>
#include <cstdint>

#include "vm/simd_kernels.h"

namespace folvec::vm {

/// Member `x` is the loop of SimdKernels entry `x`; see simd_kernels.h for
/// each entry's contract. Instantiate only with the including TU's level.
template <SimdLevel L>
struct LaneLoops {
  static void add(Word* o, const Word* a, const Word* b, std::size_t lo,
                  std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) +
                               static_cast<std::uint64_t>(b[i]));
    }
  }

  static void sub(Word* o, const Word* a, const Word* b, std::size_t lo,
                  std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) -
                               static_cast<std::uint64_t>(b[i]));
    }
  }

  static void mul(Word* o, const Word* a, const Word* b, std::size_t lo,
                  std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) *
                               static_cast<std::uint64_t>(b[i]));
    }
  }

  static void add_s(Word* o, const Word* a, Word s, std::size_t lo,
                    std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) +
                               static_cast<std::uint64_t>(s));
    }
  }

  static void mul_s(Word* o, const Word* a, Word s, std::size_t lo,
                    std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) *
                               static_cast<std::uint64_t>(s));
    }
  }

  static void and_s(Word* o, const Word* a, Word s, std::size_t lo,
                    std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] & s;
  }

  static void or_s(Word* o, const Word* a, Word s, std::size_t lo,
                   std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] | s;
  }

  static void shr_s(Word* o, const Word* a, Word s, std::size_t lo,
                    std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] >> s;
  }

  static void neg(Word* o, const Word* a, Word /*s*/, std::size_t lo,
                  std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<Word>(std::uint64_t{0} -
                               static_cast<std::uint64_t>(a[i]));
    }
  }

  static void div_s(Word* o, const Word* a, Word s, std::size_t lo,
                    std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Floor division (operands may be negative), as serial.
      Word q = a[i] / s;
      if ((a[i] % s) != 0 && (a[i] < 0)) --q;
      o[i] = q;
    }
  }

  static void mod_s(Word* o, const Word* a, Word s, std::size_t lo,
                    std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      Word r = a[i] % s;
      if (r < 0) r += s;
      o[i] = r;
    }
  }

  static void cmp_eq(std::uint8_t* o, const Word* a, const Word* b,
                     std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] == b[i] ? 1 : 0;
  }

  static void cmp_ne(std::uint8_t* o, const Word* a, const Word* b,
                     std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] != b[i] ? 1 : 0;
  }

  static void cmp_le(std::uint8_t* o, const Word* a, const Word* b,
                     std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] <= b[i] ? 1 : 0;
  }

  static void cmp_lt(std::uint8_t* o, const Word* a, const Word* b,
                     std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] < b[i] ? 1 : 0;
  }

  static void cmp_eq_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                       std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] == s ? 1 : 0;
  }

  static void cmp_ne_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                       std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] != s ? 1 : 0;
  }

  static void cmp_le_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                       std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] <= s ? 1 : 0;
  }

  static void cmp_lt_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                       std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] < s ? 1 : 0;
  }

  static void cmp_ge_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                       std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] >= s ? 1 : 0;
  }

  static void mask_and(std::uint8_t* o, const std::uint8_t* a,
                       const std::uint8_t* b, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<std::uint8_t>(a[i] & b[i]);
    }
  }

  static void mask_or(std::uint8_t* o, const std::uint8_t* a,
                      const std::uint8_t* b, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<std::uint8_t>(a[i] | b[i]);
    }
  }

  static void mask_not(std::uint8_t* o, const std::uint8_t* a, std::size_t lo,
                       std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] != 0 ? 0 : 1;
  }

  static void select(Word* o, const std::uint8_t* m, const Word* a,
                     const Word* b, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = m[i] != 0 ? a[i] : b[i];
  }

  static void from_mask(Word* o, const std::uint8_t* m, std::size_t lo,
                        std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = m[i] != 0 ? 1 : 0;
  }

  static void iota(Word* o, Word start, Word step, std::size_t lo,
                   std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = static_cast<Word>(static_cast<std::uint64_t>(start) +
                               static_cast<std::uint64_t>(step) * i);
    }
  }

  static void gather(Word* o, const Word* table, const Word* idx,
                     std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      o[i] = table[static_cast<std::size_t>(idx[i])];
    }
  }

  static void gather_masked(Word* o, const Word* table, const Word* idx,
                            const std::uint8_t* m, std::size_t lo,
                            std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (m[i] != 0) o[i] = table[static_cast<std::size_t>(idx[i])];
    }
  }

  static void load_strided(Word* o, const Word* table, std::size_t offset,
                           std::size_t stride, std::size_t lo,
                           std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = table[offset + i * stride];
  }

  static Word reduce_sum(const Word* v, std::size_t n) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += static_cast<std::uint64_t>(v[i]);
    }
    return static_cast<Word>(total);
  }

  static Word reduce_min(const Word* v, std::size_t n) {
    Word best = v[0];
    for (std::size_t i = 1; i < n; ++i) best = v[i] < best ? v[i] : best;
    return best;
  }

  static Word reduce_max(const Word* v, std::size_t n) {
    Word best = v[0];
    for (std::size_t i = 1; i < n; ++i) best = v[i] > best ? v[i] : best;
    return best;
  }

  static std::size_t count_true(const std::uint8_t* m, std::size_t n) {
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i) c += m[i];
    return c;
  }

  static std::size_t compress(Word* out, std::size_t /*cap*/, const Word* v,
                              const std::uint8_t* m, std::size_t n) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (m[i] != 0) out[k++] = v[i];
    }
    return k;
  }

  static void partition(Word* kept, std::size_t /*kept_cap*/, Word* rejected,
                        const Word* v, const std::uint8_t* m, std::size_t n) {
    std::size_t k = 0;
    std::size_t r = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (m[i] != 0) {
        kept[k++] = v[i];
      } else {
        rejected[r++] = v[i];
      }
    }
  }

  static std::size_t first_oob(const Word* idx, std::size_t n,
                               std::size_t table_size,
                               const std::uint8_t* mask) {
    for (std::size_t i = 0; i < n; ++i) {
      if (mask != nullptr && mask[i] == 0) continue;
      if (idx[i] < 0 || static_cast<std::size_t>(idx[i]) >= table_size) {
        return i;
      }
    }
    return kNoLane;
  }

  static void scatter_fwd(Word* table, const Word* idx, const Word* vals,
                          const std::uint8_t* mask, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (mask != nullptr && mask[i] == 0) continue;
      table[static_cast<std::size_t>(idx[i])] = vals[i];
    }
  }

  static void scatter_rev(Word* table, const Word* idx, const Word* vals,
                          const std::uint8_t* mask, std::size_t n) {
    for (std::size_t i = n; i > 0; --i) {
      const std::size_t lane = i - 1;
      if (mask != nullptr && mask[lane] == 0) continue;
      table[static_cast<std::size_t>(idx[lane])] = vals[lane];
    }
  }

  static std::size_t match_eq(std::uint8_t* out, const Word* table,
                              const Word* idx, const Word* vals,
                              const std::uint8_t* mask, std::size_t n) {
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool active = mask == nullptr || mask[i] != 0;
      const std::uint8_t hit =
          active && table[static_cast<std::size_t>(idx[i])] == vals[i] ? 1
                                                                       : 0;
      out[i] = hit;
      survivors += hit;
    }
    return survivors;
  }

  static void conflict_rank(Word* rank, const Word* idx, std::size_t n,
                            Word* counts) {
    // Occurrence number per lane — the software shape of what VPCONFLICTQ
    // computes in hardware; the ablation bench compares the two.
    for (std::size_t i = 0; i < n; ++i) {
      rank[i] = counts[static_cast<std::size_t>(idx[i])]++;
    }
  }
};

}  // namespace folvec::vm

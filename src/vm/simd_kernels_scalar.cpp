// The scalar SimdKernels instance: plain loops, every entry populated.
//
// This is the reference implementation of every lane loop. Serial and
// parallel machines run it, FOLVEC_SIMD_LEVEL=scalar forces it on the SIMD
// kinds, every unsupported-host downgrade lands on it, and it fills the null
// entries of the ISA tables. Integer arithmetic wraps modulo 2^64 (through
// uint64_t, so an overflowing lane is defined behaviour), exactly as the
// vector instructions do.
#include <cstddef>
#include <cstdint>

#include "vm/backend.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {

namespace {

void k_add(Word* o, const Word* a, const Word* b, std::size_t lo,
           std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) +
                             static_cast<std::uint64_t>(b[i]));
  }
}

void k_sub(Word* o, const Word* a, const Word* b, std::size_t lo,
           std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) -
                             static_cast<std::uint64_t>(b[i]));
  }
}

void k_mul(Word* o, const Word* a, const Word* b, std::size_t lo,
           std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) *
                             static_cast<std::uint64_t>(b[i]));
  }
}

void k_add_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) +
                             static_cast<std::uint64_t>(s));
  }
}

void k_mul_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) *
                             static_cast<std::uint64_t>(s));
  }
}

void k_and_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] & s;
}

void k_or_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] | s;
}

void k_shr_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] >> s;
}

void k_neg(Word* o, const Word* a, Word /*s*/, std::size_t lo,
           std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<Word>(std::uint64_t{0} -
                             static_cast<std::uint64_t>(a[i]));
  }
}

void k_div_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    // Floor division (operands may be negative), as serial.
    Word q = a[i] / s;
    if ((a[i] % s) != 0 && (a[i] < 0)) --q;
    o[i] = q;
  }
}

void k_mod_s(Word* o, const Word* a, Word s, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    Word r = a[i] % s;
    if (r < 0) r += s;
    o[i] = r;
  }
}

void k_cmp_eq(std::uint8_t* o, const Word* a, const Word* b, std::size_t lo,
              std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] == b[i] ? 1 : 0;
}

void k_cmp_ne(std::uint8_t* o, const Word* a, const Word* b, std::size_t lo,
              std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] != b[i] ? 1 : 0;
}

void k_cmp_le(std::uint8_t* o, const Word* a, const Word* b, std::size_t lo,
              std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] <= b[i] ? 1 : 0;
}

void k_cmp_lt(std::uint8_t* o, const Word* a, const Word* b, std::size_t lo,
              std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] < b[i] ? 1 : 0;
}

void k_cmp_eq_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] == s ? 1 : 0;
}

void k_cmp_ne_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] != s ? 1 : 0;
}

void k_cmp_le_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] <= s ? 1 : 0;
}

void k_cmp_lt_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] < s ? 1 : 0;
}

void k_cmp_ge_s(std::uint8_t* o, const Word* a, Word s, std::size_t lo,
                std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] >= s ? 1 : 0;
}

void k_mask_and(std::uint8_t* o, const std::uint8_t* a, const std::uint8_t* b,
                std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<std::uint8_t>(a[i] & b[i]);
  }
}

void k_mask_or(std::uint8_t* o, const std::uint8_t* a, const std::uint8_t* b,
               std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<std::uint8_t>(a[i] | b[i]);
  }
}

void k_mask_not(std::uint8_t* o, const std::uint8_t* a, std::size_t lo,
                std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] != 0 ? 0 : 1;
}

void k_select(Word* o, const std::uint8_t* m, const Word* a, const Word* b,
              std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = m[i] != 0 ? a[i] : b[i];
}

void k_from_mask(Word* o, const std::uint8_t* m, std::size_t lo,
                 std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = m[i] != 0 ? 1 : 0;
}

void k_iota(Word* o, Word start, Word step, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = static_cast<Word>(static_cast<std::uint64_t>(start) +
                             static_cast<std::uint64_t>(step) * i);
  }
}

void k_gather(Word* o, const Word* table, const Word* idx, std::size_t lo,
              std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    o[i] = table[static_cast<std::size_t>(idx[i])];
  }
}

void k_gather_masked(Word* o, const Word* table, const Word* idx,
                     const std::uint8_t* m, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    if (m[i] != 0) o[i] = table[static_cast<std::size_t>(idx[i])];
  }
}

void k_load_strided(Word* o, const Word* table, std::size_t offset,
                    std::size_t stride, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = table[offset + i * stride];
}

Word k_reduce_sum(const Word* v, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(v[i]);
  }
  return static_cast<Word>(total);
}

Word k_reduce_min(const Word* v, std::size_t n) {
  Word best = v[0];
  for (std::size_t i = 1; i < n; ++i) best = v[i] < best ? v[i] : best;
  return best;
}

Word k_reduce_max(const Word* v, std::size_t n) {
  Word best = v[0];
  for (std::size_t i = 1; i < n; ++i) best = v[i] > best ? v[i] : best;
  return best;
}

std::size_t k_count_true(const std::uint8_t* m, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += m[i];
  return c;
}

std::size_t k_compress(Word* out, std::size_t /*cap*/, const Word* v,
                       const std::uint8_t* m, std::size_t n) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (m[i] != 0) out[k++] = v[i];
  }
  return k;
}

void k_partition(Word* kept, std::size_t /*kept_cap*/, Word* rejected,
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

std::size_t k_first_oob(const Word* idx, std::size_t n, std::size_t table_size,
                        const std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    if (idx[i] < 0 || static_cast<std::size_t>(idx[i]) >= table_size) return i;
  }
  return Backend::npos;
}

void k_scatter_fwd(Word* table, const Word* idx, const Word* vals,
                   const std::uint8_t* mask, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    table[static_cast<std::size_t>(idx[i])] = vals[i];
  }
}

void k_scatter_rev(Word* table, const Word* idx, const Word* vals,
                   const std::uint8_t* mask, std::size_t n) {
  for (std::size_t i = n; i > 0; --i) {
    const std::size_t lane = i - 1;
    if (mask != nullptr && mask[lane] == 0) continue;
    table[static_cast<std::size_t>(idx[lane])] = vals[lane];
  }
}

std::size_t k_match_eq(std::uint8_t* out, const Word* table, const Word* idx,
                       const Word* vals, const std::uint8_t* mask,
                       std::size_t n) {
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool active = mask == nullptr || mask[i] != 0;
    const std::uint8_t hit =
        active && table[static_cast<std::size_t>(idx[i])] == vals[i] ? 1 : 0;
    out[i] = hit;
    survivors += hit;
  }
  return survivors;
}

void k_conflict_rank(Word* rank, const Word* idx, std::size_t n,
                     Word* counts) {
  // Occurrence number per lane — the software shape of what VPCONFLICTQ
  // computes in hardware; the ablation bench compares the two.
  for (std::size_t i = 0; i < n; ++i) {
    rank[i] = counts[static_cast<std::size_t>(idx[i])]++;
  }
}

}  // namespace

const SimdKernels& simd_kernels_scalar() {
  static const SimdKernels k = {
      SimdLevel::kScalar,
      "scalar",
      k_add,
      k_sub,
      k_mul,
      k_add_s,
      k_mul_s,
      k_and_s,
      k_or_s,
      k_shr_s,
      k_neg,
      k_div_s,
      k_mod_s,
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
      k_iota,
      k_gather,
      k_gather_masked,
      k_load_strided,
      k_reduce_sum,
      k_reduce_min,
      k_reduce_max,
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

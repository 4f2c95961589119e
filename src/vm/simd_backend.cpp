#include "vm/simd_backend.h"

#include <atomic>
#include <cstdio>
#include <cstring>

namespace folvec::vm {

namespace {

std::uint8_t level_rank(SimdLevel level) {
  return static_cast<std::uint8_t>(level);
}

void warn_downgrade_once(SimdLevel requested, SimdLevel got) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "folvec: FOLVEC_SIMD_LEVEL=%s is not available on this "
               "host/build; downgrading to %s\n",
               simd_level_name(requested), simd_level_name(got));
}

void warn_unknown_level_once(const char* spelling) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "folvec: unknown FOLVEC_SIMD_LEVEL '%s' "
               "(expected auto|scalar|neon|avx2|avx512); using auto\n",
               spelling);
}

/// `isa` with each null entry in `Fields` taken from the scalar table.
template <auto... Fields>
SimdKernels completed(const SimdKernels& isa) {
  const SimdKernels& scalar = simd_kernels_scalar();
  SimdKernels k = isa;
  ((k.*Fields = k.*Fields != nullptr ? k.*Fields : scalar.*Fields), ...);
  return k;
}

/// `isa` made total: every entry but conflict_rank, whose null is how a
/// level says it has no hardware conflict detection.
[[maybe_unused]] SimdKernels with_scalar_fill(const SimdKernels& isa) {
  using K = SimdKernels;
  return completed<&K::add, &K::sub, &K::mul, &K::add_s, &K::mul_s,
                   &K::and_s, &K::or_s, &K::shr_s, &K::neg, &K::div_s,
                   &K::mod_s, &K::cmp_eq, &K::cmp_ne, &K::cmp_le,
                   &K::cmp_lt, &K::cmp_eq_s, &K::cmp_ne_s, &K::cmp_le_s,
                   &K::cmp_lt_s, &K::cmp_ge_s, &K::mask_and, &K::mask_or,
                   &K::mask_not, &K::select, &K::from_mask, &K::iota,
                   &K::gather, &K::gather_masked, &K::load_strided,
                   &K::reduce_sum, &K::reduce_min, &K::reduce_max,
                   &K::count_true, &K::compress, &K::partition,
                   &K::first_oob, &K::scatter_fwd, &K::scatter_rev,
                   &K::match_eq>(isa);
}

}  // namespace

SimdLevel simd_host_level() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(FOLVEC_HAVE_AVX512_TU)
  if (__builtin_cpu_supports("avx512f") != 0 &&
      __builtin_cpu_supports("avx512cd") != 0 &&
      __builtin_cpu_supports("avx512dq") != 0 &&
      __builtin_cpu_supports("avx512bw") != 0 &&
      __builtin_cpu_supports("avx512vl") != 0) {
    return SimdLevel::kAvx512;
  }
#endif
#if defined(FOLVEC_HAVE_AVX2_TU)
  if (__builtin_cpu_supports("avx2") != 0) return SimdLevel::kAvx2;
#endif
#elif defined(__aarch64__) || defined(_M_ARM64)
#if defined(FOLVEC_HAVE_NEON_TU)
  // Advanced SIMD is architecturally mandatory on AArch64.
  return SimdLevel::kNeon;
#endif
#endif
  return SimdLevel::kScalar;
}

bool simd_level_supported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAuto:
      return false;
    case SimdLevel::kNeon:
#if defined(FOLVEC_HAVE_NEON_TU)
      return true;
#else
      return false;
#endif
    case SimdLevel::kAvx2:
#if defined(FOLVEC_HAVE_AVX2_TU)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(FOLVEC_HAVE_AVX512_TU)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512cd") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel simd_resolve_level(SimdLevel requested) {
  if (requested == SimdLevel::kAuto) return simd_host_level();
  if (simd_level_supported(requested)) return requested;
  // Graceful downgrade: best supported level strictly below the request.
  SimdLevel got = SimdLevel::kScalar;
  for (std::uint8_t r = level_rank(requested); r > 0; --r) {
    const SimdLevel candidate = static_cast<SimdLevel>(r - 1);
    if (simd_level_supported(candidate)) {
      got = candidate;
      break;
    }
  }
  warn_downgrade_once(requested, got);
  return got;
}

const SimdKernels& simd_kernels_for(SimdLevel level) {
  switch (level) {
#if defined(FOLVEC_HAVE_NEON_TU)
    case SimdLevel::kNeon: {
      static const SimdKernels neon = with_scalar_fill(simd_kernels_neon());
      return neon;
    }
#endif
#if defined(FOLVEC_HAVE_AVX2_TU)
    case SimdLevel::kAvx2: {
      static const SimdKernels avx2 = with_scalar_fill(simd_kernels_avx2());
      return avx2;
    }
#endif
#if defined(FOLVEC_HAVE_AVX512_TU)
    case SimdLevel::kAvx512: {
      static const SimdKernels avx512 =
          with_scalar_fill(simd_kernels_avx512());
      return avx512;
    }
#endif
    default:
      return simd_kernels_scalar();
  }
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAuto:
      return "auto";
  }
  return "scalar";
}

SimdLevel simd_parse_level(const char* spelling) {
  if (spelling == nullptr || std::strcmp(spelling, "auto") == 0 ||
      spelling[0] == '\0') {
    return SimdLevel::kAuto;
  }
  if (std::strcmp(spelling, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(spelling, "neon") == 0) return SimdLevel::kNeon;
  if (std::strcmp(spelling, "avx2") == 0) return SimdLevel::kAvx2;
  if (std::strcmp(spelling, "avx512") == 0) return SimdLevel::kAvx512;
  warn_unknown_level_once(spelling);
  return SimdLevel::kAuto;
}

}  // namespace folvec::vm

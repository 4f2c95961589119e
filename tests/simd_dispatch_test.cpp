// Runtime SIMD dispatch: level parsing (FOLVEC_SIMD_LEVEL), host CPUID
// detection, graceful downgrade when a forced level is unavailable, and the
// per-level telemetry the machine emits (backend.simd_level label plus
// backend.simd.dispatch.<level> counters).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "telemetry/metrics.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {
namespace {

/// Saves one environment variable on construction, restores it on
/// destruction, so default-parsing tests cannot leak into other tests.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* cur = std::getenv(name);
    if (cur != nullptr) saved_ = cur;
    had_ = cur != nullptr;
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(SimdDispatchTest, ParseLevelAcceptsCanonicalSpellings) {
  EXPECT_EQ(simd_parse_level(nullptr), SimdLevel::kAuto);
  EXPECT_EQ(simd_parse_level(""), SimdLevel::kAuto);
  EXPECT_EQ(simd_parse_level("auto"), SimdLevel::kAuto);
  EXPECT_EQ(simd_parse_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(simd_parse_level("neon"), SimdLevel::kNeon);
  EXPECT_EQ(simd_parse_level("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(simd_parse_level("avx512"), SimdLevel::kAvx512);
  // Unknown spellings warn once and fall back to auto rather than aborting.
  EXPECT_EQ(simd_parse_level("avx9000"), SimdLevel::kAuto);
}

TEST(SimdDispatchTest, SimdLevelDefaultReadsEnvCaseAndSpaceInsensitively) {
  const ScopedEnv env("FOLVEC_SIMD_LEVEL");
  ::unsetenv("FOLVEC_SIMD_LEVEL");
  EXPECT_EQ(MachineConfig::simd_level_default(), SimdLevel::kAuto);
  ::setenv("FOLVEC_SIMD_LEVEL", "scalar", 1);
  EXPECT_EQ(MachineConfig::simd_level_default(), SimdLevel::kScalar);
  ::setenv("FOLVEC_SIMD_LEVEL", " AVX2 ", 1);
  EXPECT_EQ(MachineConfig::simd_level_default(), SimdLevel::kAvx2);
  ::setenv("FOLVEC_SIMD_LEVEL", "Avx512", 1);
  EXPECT_EQ(MachineConfig::simd_level_default(), SimdLevel::kAvx512);
}

TEST(SimdDispatchTest, BackendDefaultParsesSimdSpellings) {
  const ScopedEnv env("FOLVEC_BACKEND");
  for (const char* simd : {"simd", "SIMD", " Simd "}) {
    ::setenv("FOLVEC_BACKEND", simd, 1);
    EXPECT_EQ(MachineConfig::backend_default(), BackendKind::kSimd)
        << '"' << simd << '"';
  }
}

TEST(SimdDispatchTest, HostLevelIsSupportedAndResolvesAuto) {
  const SimdLevel host = simd_host_level();
  EXPECT_TRUE(simd_level_supported(host));
  EXPECT_EQ(simd_resolve_level(SimdLevel::kAuto), host);
  // kScalar is supported everywhere and always resolves to itself.
  EXPECT_TRUE(simd_level_supported(SimdLevel::kScalar));
  EXPECT_EQ(simd_resolve_level(SimdLevel::kScalar), SimdLevel::kScalar);
}

TEST(SimdDispatchTest, ResolveDowngradesGracefullyToASupportedLevel) {
  for (const SimdLevel requested :
       {SimdLevel::kScalar, SimdLevel::kNeon, SimdLevel::kAvx2,
        SimdLevel::kAvx512}) {
    const SimdLevel got = simd_resolve_level(requested);
    EXPECT_TRUE(simd_level_supported(got)) << simd_level_name(requested);
    if (simd_level_supported(requested)) {
      EXPECT_EQ(got, requested);
    } else {
      // Downgrade, never upgrade: the resolved rank sits strictly below.
      EXPECT_LT(static_cast<int>(got), static_cast<int>(requested));
    }
  }
}

TEST(SimdDispatchTest, KernelTablesCarryTheirOwnLevelAndName) {
  const SimdKernels& scalar = simd_kernels_scalar();
  EXPECT_EQ(scalar.level, SimdLevel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  // The scalar table is total: forced-scalar machines still dispatch every
  // primitive through the table plumbing.
  EXPECT_NE(scalar.add, nullptr);
  EXPECT_NE(scalar.scatter_fwd, nullptr);
  EXPECT_NE(scalar.conflict_rank, nullptr);
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kNeon, SimdLevel::kAvx2,
        SimdLevel::kAvx512}) {
    if (!simd_level_supported(level)) continue;
    const SimdKernels& table = simd_kernels_for(level);
    EXPECT_EQ(table.level, level);
    EXPECT_STREQ(table.name, simd_level_name(level));
    // Resolution makes the table total: the machine calls every entry
    // directly. Only conflict_rank may stay null (no hardware conflict
    // detection at that level).
    static_assert(sizeof(SimdKernels) == 42 * sizeof(void*),
                  "a new SimdKernels entry needs a line below");
    const std::pair<const char*, bool> entries[] = {
        {"add", table.add != nullptr},
        {"sub", table.sub != nullptr},
        {"mul", table.mul != nullptr},
        {"add_s", table.add_s != nullptr},
        {"mul_s", table.mul_s != nullptr},
        {"and_s", table.and_s != nullptr},
        {"or_s", table.or_s != nullptr},
        {"shr_s", table.shr_s != nullptr},
        {"neg", table.neg != nullptr},
        {"div_s", table.div_s != nullptr},
        {"mod_s", table.mod_s != nullptr},
        {"cmp_eq", table.cmp_eq != nullptr},
        {"cmp_ne", table.cmp_ne != nullptr},
        {"cmp_le", table.cmp_le != nullptr},
        {"cmp_lt", table.cmp_lt != nullptr},
        {"cmp_eq_s", table.cmp_eq_s != nullptr},
        {"cmp_ne_s", table.cmp_ne_s != nullptr},
        {"cmp_le_s", table.cmp_le_s != nullptr},
        {"cmp_lt_s", table.cmp_lt_s != nullptr},
        {"cmp_ge_s", table.cmp_ge_s != nullptr},
        {"mask_and", table.mask_and != nullptr},
        {"mask_or", table.mask_or != nullptr},
        {"mask_not", table.mask_not != nullptr},
        {"select", table.select != nullptr},
        {"from_mask", table.from_mask != nullptr},
        {"iota", table.iota != nullptr},
        {"gather", table.gather != nullptr},
        {"gather_masked", table.gather_masked != nullptr},
        {"load_strided", table.load_strided != nullptr},
        {"reduce_sum", table.reduce_sum != nullptr},
        {"reduce_min", table.reduce_min != nullptr},
        {"reduce_max", table.reduce_max != nullptr},
        {"count_true", table.count_true != nullptr},
        {"compress", table.compress != nullptr},
        {"partition", table.partition != nullptr},
        {"first_oob", table.first_oob != nullptr},
        {"scatter_fwd", table.scatter_fwd != nullptr},
        {"scatter_rev", table.scatter_rev != nullptr},
        {"match_eq", table.match_eq != nullptr},
    };
    for (const auto& [entry, present] : entries) {
      EXPECT_TRUE(present) << simd_level_name(level) << "." << entry;
    }
  }
}

TEST(SimdDispatchTest, ForcedScalarMachineReportsItself) {
  MachineConfig cfg;
  cfg.backend = BackendKind::kSimd;
  cfg.simd_level = SimdLevel::kScalar;
  VectorMachine m(cfg);
  EXPECT_STREQ(m.backend_name(), "simd");
  EXPECT_EQ(m.active_simd_level(), SimdLevel::kScalar);
  EXPECT_EQ(m.simd_dispatches(), 0u);
  const WordVec a = m.iota(100);
  m.reduce_sum(m.add(a, a));
  EXPECT_GT(m.simd_dispatches(), 0u);
}

TEST(SimdDispatchTest, SerialMachineNeverDispatchesSimd) {
  MachineConfig cfg;
  cfg.backend = BackendKind::kSerial;
  VectorMachine m(cfg);
  EXPECT_EQ(m.active_simd_level(), SimdLevel::kScalar);
  const WordVec a = m.iota(100);
  m.reduce_sum(m.add(a, a));
  EXPECT_EQ(m.simd_dispatches(), 0u);
}

TEST(SimdDispatchTest, TelemetryCarriesLevelLabelAndDispatchCounter) {
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetrics scoped(registry);
  const char* level_name = nullptr;
  {
    MachineConfig cfg;
    cfg.backend = BackendKind::kSimd;
    cfg.audit = false;
    VectorMachine m(cfg);
    level_name = simd_level_name(m.active_simd_level());
    const WordVec a = m.iota(512);
    m.reduce_sum(m.mul_scalar(a, 3));
  }
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  ASSERT_TRUE(snap.labels.contains("backend.simd_level"));
  EXPECT_EQ(snap.labels.at("backend.simd_level"), level_name);
  ASSERT_TRUE(snap.labels.contains("backend.name"));
  EXPECT_EQ(snap.labels.at("backend.name"), "simd");
  const std::string counter =
      std::string("backend.simd.dispatch.") + level_name;
  ASSERT_TRUE(snap.counters.contains(counter)) << counter;
  EXPECT_GT(snap.counters.at(counter), 0u);
}

TEST(SimdDispatchTest, ConflictRankMatchesScalarOccurrenceNumbers) {
  // conflict_rank is the hardware half of the FOL ablation: rank[i] must be
  // lane i's occurrence number among earlier lanes with the same address,
  // for every level that provides the kernel.
  const WordVec idx{3, 1, 3, 3, 0, 1, 7, 3};
  const WordVec want{0, 0, 1, 2, 0, 1, 0, 3};
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kNeon, SimdLevel::kAvx2,
        SimdLevel::kAvx512}) {
    if (!simd_level_supported(level)) continue;
    const SimdKernels& table = simd_kernels_for(level);
    if (table.conflict_rank == nullptr) continue;
    WordVec rank(idx.size(), -1);
    WordVec counts(8, 0);
    table.conflict_rank(rank.data(), idx.data(), idx.size(), counts.data());
    EXPECT_EQ(rank, want) << simd_level_name(level);
    // counts must hold the final occurrence totals (reusable next round).
    EXPECT_EQ(counts[3], 4);
    EXPECT_EQ(counts[1], 2);
    EXPECT_EQ(counts[0], 1);
    EXPECT_EQ(counts[7], 1);
  }
}

TEST(SimdDispatchTest, ConflictRankFuzzAgainstScalarReference) {
  const SimdLevel host = simd_host_level();
  if (host == SimdLevel::kScalar) {
    GTEST_SKIP() << "no vector ISA on this host/build";
  }
  const SimdKernels& hw = simd_kernels_for(host);
  if (hw.conflict_rank == nullptr) {
    GTEST_SKIP() << simd_level_name(host) << " has no conflict detection";
  }
  const SimdKernels& ref = simd_kernels_scalar();
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + next() % 500;
    const std::size_t keys = 1 + next() % 64;
    WordVec idx(n);
    for (auto& x : idx) x = static_cast<Word>(next() % keys);
    WordVec rank_hw(n, -1);
    WordVec rank_ref(n, -1);
    WordVec counts_hw(keys, 0);
    WordVec counts_ref(keys, 0);
    hw.conflict_rank(rank_hw.data(), idx.data(), n, counts_hw.data());
    ref.conflict_rank(rank_ref.data(), idx.data(), n, counts_ref.data());
    ASSERT_EQ(rank_hw, rank_ref) << "round " << round << " n=" << n;
    ASSERT_EQ(counts_hw, counts_ref) << "round " << round;
  }
}

}  // namespace
}  // namespace folvec::vm

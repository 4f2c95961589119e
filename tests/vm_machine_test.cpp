// Unit tests for the vector machine substrate: functional semantics of every
// primitive, the three scatter-order modes, the ELS failure injection, and
// bounds checking.
#include "vm/machine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>

#include "support/faultsim.h"
#include "support/prng.h"
#include "vm/buffer_pool.h"

namespace folvec::vm {
namespace {

using ::testing::Test;

class MachineTest : public Test {
 protected:
  VectorMachine m_;
};

TEST_F(MachineTest, IotaProducesArithmeticSequence) {
  EXPECT_EQ(m_.iota(5), (WordVec{0, 1, 2, 3, 4}));
  EXPECT_EQ(m_.iota(4, 10), (WordVec{10, 11, 12, 13}));
  EXPECT_EQ(m_.iota(3, 1, -2), (WordVec{1, -1, -3}));
  EXPECT_TRUE(m_.iota(0).empty());
}

TEST_F(MachineTest, SplatReplicates) {
  EXPECT_EQ(m_.splat(3, 7), (WordVec{7, 7, 7}));
}

TEST_F(MachineTest, CopyIsIdentity) {
  const WordVec v{3, 1, 4, 1, 5};
  EXPECT_EQ(m_.copy(v), v);
}

TEST_F(MachineTest, ElementwiseArithmetic) {
  const WordVec a{1, 2, 3};
  const WordVec b{10, 20, 30};
  EXPECT_EQ(m_.add(a, b), (WordVec{11, 22, 33}));
  EXPECT_EQ(m_.sub(b, a), (WordVec{9, 18, 27}));
  EXPECT_EQ(m_.add_scalar(a, 5), (WordVec{6, 7, 8}));
  EXPECT_EQ(m_.mul_scalar(a, 3), (WordVec{3, 6, 9}));
  EXPECT_EQ(m_.negate(a), (WordVec{-1, -2, -3}));
  EXPECT_EQ(m_.and_scalar(WordVec{5, 6, 7}, 3), (WordVec{1, 2, 3}));
}

TEST_F(MachineTest, DivScalarIsFloorDivision) {
  EXPECT_EQ(m_.div_scalar(WordVec{7, -7, 6, -6}, 3), (WordVec{2, -3, 2, -2}));
}

TEST_F(MachineTest, ModScalarIsEuclidean) {
  EXPECT_EQ(m_.mod_scalar(WordVec{7, -7, 6, 0}, 3), (WordVec{1, 2, 0, 0}));
}

TEST_F(MachineTest, MismatchedLengthsThrow) {
  EXPECT_THROW(m_.add(WordVec{1}, WordVec{1, 2}), PreconditionError);
  EXPECT_THROW(m_.eq(WordVec{1}, WordVec{1, 2}), PreconditionError);
}

TEST_F(MachineTest, ComparesProduceMasks) {
  const WordVec a{1, 5, 3};
  const WordVec b{1, 2, 9};
  EXPECT_EQ(m_.eq(a, b), (Mask{1, 0, 0}));
  EXPECT_EQ(m_.ne(a, b), (Mask{0, 1, 1}));
  EXPECT_EQ(m_.le(a, b), (Mask{1, 0, 1}));
  EXPECT_EQ(m_.lt(a, b), (Mask{0, 0, 1}));
  EXPECT_EQ(m_.eq_scalar(a, 5), (Mask{0, 1, 0}));
  EXPECT_EQ(m_.ne_scalar(a, 5), (Mask{1, 0, 1}));
  EXPECT_EQ(m_.le_scalar(a, 3), (Mask{1, 0, 1}));
  EXPECT_EQ(m_.lt_scalar(a, 3), (Mask{1, 0, 0}));
  EXPECT_EQ(m_.ge_scalar(a, 3), (Mask{0, 1, 1}));
}

TEST_F(MachineTest, MaskAlgebra) {
  const Mask a{1, 1, 0, 0};
  const Mask b{1, 0, 1, 0};
  EXPECT_EQ(m_.mask_and(a, b), (Mask{1, 0, 0, 0}));
  EXPECT_EQ(m_.mask_or(a, b), (Mask{1, 1, 1, 0}));
  EXPECT_EQ(m_.mask_not(a), (Mask{0, 0, 1, 1}));
  EXPECT_EQ(m_.count_true(a), 2u);
  EXPECT_EQ(m_.count_true(Mask{}), 0u);
}

TEST_F(MachineTest, CompressPacksTrueLanes) {
  EXPECT_EQ(m_.compress(WordVec{1, 2, 3}, Mask{1, 0, 1}), (WordVec{1, 3}));
  EXPECT_TRUE(m_.compress(WordVec{1, 2}, Mask{0, 0}).empty());
}

TEST_F(MachineTest, SelectMergesByMask) {
  EXPECT_EQ(m_.select(Mask{1, 0, 1}, WordVec{1, 2, 3}, WordVec{7, 8, 9}),
            (WordVec{1, 8, 3}));
}

TEST_F(MachineTest, FromMaskYieldsZeroOne) {
  EXPECT_EQ(m_.from_mask(Mask{1, 0, 1}), (WordVec{1, 0, 1}));
}

TEST_F(MachineTest, ContiguousLoadStoreFill) {
  WordVec table(6, 0);
  m_.store(table, 2, WordVec{7, 8});
  EXPECT_EQ(table, (WordVec{0, 0, 7, 8, 0, 0}));
  EXPECT_EQ(m_.load(table, 1, 3), (WordVec{0, 7, 8}));
  m_.fill(table, 9);
  EXPECT_EQ(table, WordVec(6, 9));
  EXPECT_THROW(m_.store(table, 5, WordVec{1, 2}), PreconditionError);
  EXPECT_THROW(m_.load(table, 5, 2), PreconditionError);
}

TEST_F(MachineTest, StridedLoadStore) {
  WordVec table{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(m_.load_strided(table, 1, 3, 3), (WordVec{1, 4, 7}));
  m_.store_strided(table, 0, 4, WordVec{100, 200});
  EXPECT_EQ(table[0], 100);
  EXPECT_EQ(table[4], 200);
  EXPECT_THROW(m_.load_strided(table, 2, 3, 3), PreconditionError);
}

TEST_F(MachineTest, GatherReadsThroughIndices) {
  const WordVec table{10, 20, 30, 40};
  EXPECT_EQ(m_.gather(table, WordVec{3, 0, 3}), (WordVec{40, 10, 40}));
  EXPECT_THROW(m_.gather(table, WordVec{4}), PreconditionError);
  EXPECT_THROW(m_.gather(table, WordVec{-1}), PreconditionError);
}

TEST_F(MachineTest, GatherMaskedSkipsInactiveLanes) {
  const WordVec table{10, 20};
  // Inactive lanes may carry wild indices (e.g. null links).
  EXPECT_EQ(m_.gather_masked(table, WordVec{-1, 1, 99}, Mask{0, 1, 0}, -7),
            (WordVec{-7, 20, -7}));
  EXPECT_THROW(m_.gather_masked(table, WordVec{9}, Mask{1}, 0),
               PreconditionError);
}

TEST_F(MachineTest, ScatterWithoutDuplicatesIsOrderIndependent) {
  for (const auto order : {ScatterOrder::kForward, ScatterOrder::kReverse,
                           ScatterOrder::kShuffled}) {
    MachineConfig cfg;
    cfg.scatter_order = order;
    VectorMachine m(cfg);
    WordVec table(4, 0);
    m.scatter(table, WordVec{2, 0, 3}, WordVec{7, 8, 9});
    EXPECT_EQ(table, (WordVec{8, 0, 7, 9}));
  }
}

TEST_F(MachineTest, ScatterDuplicateSurvivorDependsOnOrder) {
  // These scatters probe machine-dependent duplicate behaviour on purpose,
  // so they opt out of the hazard audit.
  {
    MachineConfig cfg;
    cfg.audit = false;
    cfg.scatter_order = ScatterOrder::kForward;
    VectorMachine m(cfg);
    WordVec table(1, 0);
    m.scatter(table, WordVec{0, 0, 0}, WordVec{1, 2, 3});
    EXPECT_EQ(table[0], 3);  // last lane wins
  }
  {
    MachineConfig cfg;
    cfg.audit = false;
    cfg.scatter_order = ScatterOrder::kReverse;
    VectorMachine m(cfg);
    WordVec table(1, 0);
    m.scatter(table, WordVec{0, 0, 0}, WordVec{1, 2, 3});
    EXPECT_EQ(table[0], 1);  // first lane wins
  }
}

TEST_F(MachineTest, ShuffledScatterSatisfiesEls) {
  MachineConfig cfg;
  cfg.audit = false;  // intentional duplicate scatters
  cfg.scatter_order = ScatterOrder::kShuffled;
  VectorMachine m(cfg);
  // Whatever the interleaving, the survivor must be one of the written
  // values (the ELS condition) — across many repetitions.
  for (int rep = 0; rep < 100; ++rep) {
    WordVec table(2, -1);
    m.scatter(table, WordVec{0, 0, 1, 0}, WordVec{10, 20, 99, 30});
    EXPECT_TRUE(table[0] == 10 || table[0] == 20 || table[0] == 30);
    EXPECT_EQ(table[1], 99);  // singleton writes always land intact
  }
}

TEST_F(MachineTest, ShuffledScatterEventuallyVariesSurvivor) {
  MachineConfig cfg;
  cfg.audit = false;  // intentional duplicate scatters
  cfg.scatter_order = ScatterOrder::kShuffled;
  VectorMachine m(cfg);
  bool saw_different = false;
  Word first = 0;
  for (int rep = 0; rep < 64 && !saw_different; ++rep) {
    WordVec table(1, -1);
    m.scatter(table, WordVec{0, 0, 0, 0}, WordVec{1, 2, 3, 4});
    if (rep == 0) {
      first = table[0];
    } else if (table[0] != first) {
      saw_different = true;
    }
  }
  EXPECT_TRUE(saw_different)
      << "64 shuffled scatters never changed the duplicate survivor";
}

TEST_F(MachineTest, ElsViolationInjectionProducesAmalgam) {
  MachineConfig cfg;
  cfg.audit = false;  // the injected amalgam is the point, not a hazard
  FaultPlan els(1, "els%1");  // every unmasked scatter violates ELS
  const ScopedFaultPlan inject(&els);
  VectorMachine m(cfg);
  WordVec table(2, 0);
  m.scatter(table, WordVec{0, 0, 1}, WordVec{5, 9, 42});
  // Colliding lanes: an amalgam of both values that equals neither.
  EXPECT_NE(table[0], 5);
  EXPECT_NE(table[0], 9);
  EXPECT_EQ(table[0], (5 + 1) ^ (9 + 1));
  // Singleton lanes stay intact.
  EXPECT_EQ(table[1], 42);
}

TEST_F(MachineTest, ScatterMaskedOnlyWritesActiveLanes) {
  WordVec table(3, 0);
  m_.scatter_masked(table, WordVec{0, 1, 2}, WordVec{7, 8, 9}, Mask{1, 0, 1});
  EXPECT_EQ(table, (WordVec{7, 0, 9}));
}

TEST_F(MachineTest, ScatterOrderedLastLaneWinsEvenOnReverseMachine) {
  MachineConfig cfg;
  cfg.scatter_order = ScatterOrder::kReverse;
  VectorMachine m(cfg);
  WordVec table(1, 0);
  m.scatter_ordered(table, WordVec{0, 0}, WordVec{1, 2});
  EXPECT_EQ(table[0], 2);
}

TEST_F(MachineTest, BitwiseAndShiftOps) {
  EXPECT_EQ(m_.or_scalar(WordVec{1, 4, 0}, 2), (WordVec{3, 6, 2}));
  EXPECT_EQ(m_.shl_scalar(WordVec{1, 3}, 4), (WordVec{16, 48}));
  EXPECT_EQ(m_.shr_scalar(WordVec{16, 48, -8}, 3), (WordVec{2, 6, -1}));
  EXPECT_THROW(m_.shl_scalar(WordVec{-1}, 1), PreconditionError);
  EXPECT_THROW(m_.shr_scalar(WordVec{1}, 64), PreconditionError);
}

TEST_F(MachineTest, ReverseFlipsElementOrder) {
  EXPECT_EQ(m_.reverse(WordVec{1, 2, 3}), (WordVec{3, 2, 1}));
  EXPECT_TRUE(m_.reverse(WordVec{}).empty());
  EXPECT_EQ(m_.reverse(WordVec{7}), (WordVec{7}));
}

TEST_F(MachineTest, Reductions) {
  const WordVec v{3, -1, 4, 1, 5};
  EXPECT_EQ(m_.reduce_sum(v), 12);
  EXPECT_EQ(m_.reduce_min(v), -1);
  EXPECT_EQ(m_.reduce_max(v), 5);
  EXPECT_EQ(m_.reduce_sum(WordVec{}), 0);
  EXPECT_THROW(m_.reduce_min(WordVec{}), PreconditionError);
  EXPECT_THROW(m_.reduce_max(WordVec{}), PreconditionError);
}

TEST_F(MachineTest, MaskedScatterSkipsBoundsCheckOnInactiveLanes) {
  // Inactive lanes may carry wild indices, mirroring gather_masked.
  WordVec table(2, 0);
  m_.scatter_masked(table, WordVec{-5, 1, 99}, WordVec{7, 8, 9},
                    Mask{0, 1, 0});
  EXPECT_EQ(table, (WordVec{0, 8}));
  EXPECT_THROW(
      m_.scatter_masked(table, WordVec{99}, WordVec{1}, Mask{1}),
      PreconditionError);
}

TEST_F(MachineTest, ContiguousBoundsChecksSurviveOffsetOverflow) {
  // Regression: the old checks computed `offset + v.size()` /
  // `offset + n`, which wraps for offsets near SIZE_MAX and used to let a
  // huge offset slip past the guard. Subtraction-form checks must throw.
  WordVec table(8, 0);
  const WordVec vals{1, 2, 3, 4};
  EXPECT_THROW(m_.load(table, SIZE_MAX - 1, 4), PreconditionError);
  EXPECT_THROW(m_.load(table, SIZE_MAX, 1), PreconditionError);
  EXPECT_THROW(m_.store(table, SIZE_MAX - 2, vals), PreconditionError);
  EXPECT_THROW(m_.load(table, 9, 0), PreconditionError);
  // In-range operations still work, including the exact-fit edge.
  m_.store(table, 4, vals);
  EXPECT_EQ(m_.load(table, 4, 4), vals);
  EXPECT_TRUE(m_.load(table, 8, 0).empty());
}

TEST_F(MachineTest, StridedBoundsChecksSurviveOverflow) {
  // Regression: `offset + (n-1)*stride` overflows for huge strides; the
  // rewritten check divides instead of multiplying.
  WordVec table(8, 0);
  EXPECT_THROW(m_.load_strided(table, 0, SIZE_MAX / 2 + 1, 3),
               PreconditionError);
  EXPECT_THROW(m_.load_strided(table, 2, SIZE_MAX - 1, 2), PreconditionError);
  EXPECT_THROW(m_.store_strided(table, 2, SIZE_MAX - 1, WordVec{1, 2}),
               PreconditionError);
  EXPECT_THROW(m_.load_strided(table, 8, 1, 1), PreconditionError);
  // n == 0 touches nothing, so even absurd offsets/strides are legal.
  EXPECT_TRUE(m_.load_strided(table, SIZE_MAX, SIZE_MAX, 0).empty());
  m_.store_strided(table, SIZE_MAX, SIZE_MAX, WordVec{});
  // Exact-fit edges still pass: last element lands on table.back().
  table = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(m_.load_strided(table, 1, 3, 3), (WordVec{1, 4, 7}));
  m_.store_strided(table, 1, 3, WordVec{-1, -4, -7});
  EXPECT_EQ(table, (WordVec{0, -1, 2, 3, -4, 5, 6, -7}));
}

TEST_F(MachineTest, ElsViolationInjectionMatchesQuadraticReference) {
  // Regression for the O(n^2) -> O(n) rewrite of the injection path: the
  // amalgam written to each contested address must stay byte-identical to
  // the brute-force definition (XOR of val+1 over every colliding lane;
  // uncontested lanes store their value unchanged).
  MachineConfig cfg;
  FaultPlan els(1, "els%1");  // every unmasked scatter violates ELS
  const ScopedFaultPlan inject(&els);
  cfg.audit = false;
  VectorMachine m(cfg);
  Xoshiro256 rng(0x1badb002);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 400));
    const auto areas = static_cast<std::size_t>(
        rng.in_range(1, static_cast<Word>(n)));
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) x = rng.in_range(0, static_cast<Word>(areas) - 1);
    for (auto& x : vals) x = rng.in_range(-1000, 1000);
    WordVec got(areas, -1);
    m.scatter(got, idx, vals);
    WordVec want(areas, -1);
    for (std::size_t a = 0; a < areas; ++a) {
      std::size_t collisions = 0;
      Word amalgam = 0;
      for (std::size_t lane = 0; lane < n; ++lane) {
        if (idx[lane] == static_cast<Word>(a)) {
          ++collisions;
          amalgam ^= vals[lane] + 1;
          if (collisions == 1) want[a] = vals[lane];
        }
      }
      if (collisions > 1) want[a] = amalgam;
    }
    ASSERT_EQ(got, want) << "injection amalgam diverged at round " << round;
  }
}

/// Saves one environment variable on construction, restores it on
/// destruction, so default-parsing tests cannot leak into other tests (or
/// be confused by CI jobs that export FOLVEC_AUDIT=1).
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

  void set(const char* value) { ::setenv(name_, value, 1); }
  void unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST_F(MachineTest, AuditDefaultParsesOffSpellingsCaseInsensitively) {
  // Regression: only the literal "0" used to turn the auditor off, so
  // FOLVEC_AUDIT=off counter-intuitively *enabled* it.
  const ScopedEnv env("FOLVEC_AUDIT");
  for (const char* off : {"0", "00", "false", "OFF", "No", " off "}) {
    ::setenv("FOLVEC_AUDIT", off, 1);
    EXPECT_FALSE(MachineConfig::audit_default()) << '"' << off << '"';
  }
  for (const char* on : {"1", "true", "ON", "Yes"}) {
    ::setenv("FOLVEC_AUDIT", on, 1);
    EXPECT_TRUE(MachineConfig::audit_default()) << '"' << on << '"';
  }
}

TEST_F(MachineTest, BackendDefaultParsesSerialAndSimd) {
  const ScopedEnv env("FOLVEC_BACKEND");
  ::unsetenv("FOLVEC_BACKEND");
  EXPECT_EQ(MachineConfig::backend_default(), BackendKind::kSerial);
  for (const char* serial : {"serial", "SERIAL", " Serial "}) {
    ::setenv("FOLVEC_BACKEND", serial, 1);
    EXPECT_EQ(MachineConfig::backend_default(), BackendKind::kSerial)
        << '"' << serial << '"';
  }
  ::setenv("FOLVEC_BACKEND", "simd", 1);
  EXPECT_EQ(MachineConfig::backend_default(), BackendKind::kSimd);
}

TEST_F(MachineTest, BackendDefaultRejectsEveryOtherSpelling) {
  // The retired multi-worker spellings and the boolean ones fail loudly, so
  // a stale variable never benchmarks something else.
  const ScopedEnv env("FOLVEC_BACKEND");
  for (const char* bad :
       {"parallel", "Parallel", "parallel+simd", "simd+parallel", "1", "on",
        "true", "Yes", "0", "off", "false", "No", "scalar", "avx2"}) {
    ::setenv("FOLVEC_BACKEND", bad, 1);
    try {
      MachineConfig::backend_default();
      ADD_FAILURE() << '"' << bad << "\" was accepted";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("serial"), std::string::npos) << what;
      EXPECT_NE(what.find("simd"), std::string::npos) << what;
    }
  }
}

TEST_F(MachineTest, BackendIntrospection) {
  // Explicit configs on both machines: the suite must pass regardless of
  // what FOLVEC_BACKEND the environment exports.
  MachineConfig cfg;
  cfg.backend = BackendKind::kSerial;
  const VectorMachine s(cfg);
  EXPECT_STREQ(s.backend_name(), "serial");
  EXPECT_EQ(s.backend_workers(), 1u);
  cfg.backend = BackendKind::kSimd;
  const VectorMachine v(cfg);
  EXPECT_STREQ(v.backend_name(), "simd");
  EXPECT_EQ(v.backend_workers(), 1u);
}

TEST_F(MachineTest, BackendThreadsAboveOneIsRejected) {
  MachineConfig cfg;
  for (const std::size_t threads : {0u, 1u}) {
    cfg.backend_threads = threads;
    EXPECT_NO_THROW(VectorMachine{cfg}) << threads;
  }
  for (const std::size_t threads : {2u, 8u}) {
    cfg.backend_threads = threads;
    EXPECT_THROW(VectorMachine{cfg}, PreconditionError) << threads;
  }
}

TEST_F(MachineTest, CostAccumulatorCountsInstructionsAndElements) {
  VectorMachine m;
  m.iota(10);
  m.iota(20);
  EXPECT_EQ(m.cost().instructions(OpClass::kVectorArith), 2u);
  EXPECT_EQ(m.cost().elements(OpClass::kVectorArith), 30u);
  m.scalar_mem(3);
  EXPECT_EQ(m.cost().elements(OpClass::kScalarMem), 3u);
  m.cost().reset();
  EXPECT_EQ(m.cost().total_instructions(), 0u);
}

// ---- destination-passing (*_into) primitives --------------------------------

TEST_F(MachineTest, IntoRefillWithinCapacityKeepsStorage) {
  // The round loops keep their working vectors as plain locals that the
  // *_into forms refill in place; a refill that fits must not reallocate.
  const WordVec table{10, 20, 30, 40, 50, 60, 70, 80};
  WordVec out;
  m_.iota_into(out, 8);
  EXPECT_EQ(out, (WordVec{0, 1, 2, 3, 4, 5, 6, 7}));
  const Word* storage = out.data();
  m_.gather_into(out, table, WordVec{7, 0, 7});
  EXPECT_EQ(out, (WordVec{80, 10, 80}));
  EXPECT_EQ(m_.compress_into(out, table, Mask{1, 0, 0, 1, 0, 1, 0, 0}), 3u);
  EXPECT_EQ(out, (WordVec{10, 40, 60}));
  m_.add_scalar_into(out, table, 1);
  EXPECT_EQ(out, (WordVec{11, 21, 31, 41, 51, 61, 71, 81}));
  m_.copy_into(out, WordVec{5, 6});
  EXPECT_EQ(out, (WordVec{5, 6}));
  EXPECT_EQ(out.data(), storage);
}

TEST_F(MachineTest, IntoFromEmptySourcesEmptiesTheDestination) {
  const WordVec table{1, 2, 3};
  WordVec out{9, 9, 9, 9};
  m_.gather_into(out, table, WordVec{});
  EXPECT_TRUE(out.empty());
  out.assign(4, 9);
  m_.copy_into(out, WordVec{});
  EXPECT_TRUE(out.empty());
  out.assign(4, 9);
  m_.iota_into(out, 0);
  EXPECT_TRUE(out.empty());
  out.assign(4, 9);
  EXPECT_EQ(m_.compress_into(out, table, Mask(3)), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(MachineIntoTest, IntoFormsMatchValueFormsAndTheirCharges) {
  const WordVec table{4, 8, 15, 16, 23, 42};
  const WordVec idx{5, 0, 5, 2};
  const Mask keep{1, 0, 1, 1, 0, 1};
  VectorMachine by_value;
  const WordVec g = by_value.gather(table, idx);
  const WordVec c = by_value.compress(table, keep);
  const WordVec a = by_value.add_scalar(g, 3);
  const WordVec r = by_value.reverse(c);

  VectorMachine into;
  WordVec out;
  into.gather_into(out, table, idx);
  EXPECT_EQ(out, g);
  into.compress_into(out, table, keep);
  EXPECT_EQ(out, c);
  WordVec sum;
  into.add_scalar_into(sum, g, 3);
  EXPECT_EQ(sum, a);
  into.reverse_into(sum, c);
  EXPECT_EQ(sum, r);

  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    const auto cls = static_cast<OpClass>(i);
    EXPECT_EQ(into.cost().instructions(cls), by_value.cost().instructions(cls))
        << "op class " << i;
    EXPECT_EQ(into.cost().elements(cls), by_value.cost().elements(cls))
        << "op class " << i;
  }
}

// ---- telemetry --------------------------------------------------------------

TEST(MachineTelemetryTest, PoolShimCountersStayZero) {
  VectorMachine m;
  WordVec a;
  WordVec b;
  for (int i = 0; i < 4; ++i) {
    m.iota_into(a, 64);
    m.add_scalar_into(b, a, 1);
    (void)m.gather(b, m.iota(16));
  }
  EXPECT_EQ(m.pool().stats().acquires, 0u);
  EXPECT_EQ(m.pool().stats().hits, 0u);
}

TEST(MachineTelemetryTest, FlushPublishesNoPoolNamespace) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  {
    VectorMachine m;
    WordVec a;
    WordVec b;
    m.iota_into(a, 32);
    m.compress_into(b, a, Mask(32, 1));
  }
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("vm.machines"), 1u);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_FALSE(name.starts_with("pool.")) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_FALSE(name.starts_with("pool.")) << name;
  }
}

TEST(MachineTelemetryTest, MovedFromMachineReportsNothing) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  {
    VectorMachine source;
    EXPECT_EQ(source.iota(8).size(), 8u);
    VectorMachine moved(std::move(source));
    VectorMachine assigned;
    assigned = std::move(moved);
  }
  // Three machines were destroyed; only the one holding the state reports.
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("vm.machines"), 1u);
  std::uint64_t instructions = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.ends_with(".instructions")) instructions += value;
  }
  EXPECT_EQ(instructions, 1u);
}

}  // namespace
}  // namespace folvec::vm

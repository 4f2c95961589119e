// Recoverable errors, deterministic fault injection, and graceful
// degradation. Three contracts under test:
//
//   1. Taxonomy — data-dependent exhaustion (TableFull,
//      ProbeCycleSaturated) surfaces as Status / RecoverableError, distinct
//      from the logic_error bug classes.
//   2. Injection — every FaultSite (els, probe) can be fired
//      deterministically from a seeded FaultPlan, every site recovers
//      without process-level unwinding, and recovery is bit-identical
//      across the serial and simd backends.
//   3. Degradation — pathological sharing (Theorem 6's heavy-duplication
//      worst case) drains through the adaptive scalar path in O(k) instead
//      of O(N^2) vector work, preserving every decomposition theorem.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fol/fol1.h"
#include "fol/fol_star.h"
#include "fol/invariants.h"
#include "fol/ordered.h"
#include "fol/rounds.h"
#include "hashing/hash_map.h"
#include "hashing/open_table.h"
#include "support/faultsim.h"
#include "support/prng.h"
#include "support/require.h"
#include "support/status.h"
#include "telemetry/metrics.h"
#include "vm/machine.h"

namespace folvec {
namespace {

using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

std::uint64_t counter(const telemetry::MetricsRegistry& reg,
                      const std::string& name) {
  const auto snap = reg.snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

vm::MachineConfig quiet_config() {
  vm::MachineConfig cfg;
  cfg.audit = false;  // injection deliberately violates audit contracts
  return cfg;
}

/// quiet_config on the widest kernel table the host supports.
vm::MachineConfig simd_config() {
  vm::MachineConfig cfg = quiet_config();
  cfg.backend = vm::BackendKind::kSimd;
  cfg.simd_level = vm::SimdLevel::kAuto;
  return cfg;
}

/// A duplicate-heavy FOL1 workload small enough to stay on the vector path.
WordVec mixed_targets(std::size_t n, std::size_t distinct,
                      std::uint64_t seed) {
  WordVec targets(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = static_cast<Word>(i % distinct);
  }
  Xoshiro256 rng(seed);
  shuffle(targets, rng);
  return targets;
}

// ---- 1. taxonomy ------------------------------------------------------------

TEST(StatusTaxonomy, CodesNamesAndEquality) {
  EXPECT_TRUE(Status::ok().is_ok());
  EXPECT_EQ(Status::ok().to_string(), "Ok");
  const Status full(StatusCode::kTableFull, "67 slots");
  EXPECT_FALSE(full.is_ok());
  EXPECT_EQ(full.to_string(), "TableFull: 67 slots");
  EXPECT_EQ(full, Status(StatusCode::kTableFull, "different message"));
  EXPECT_FALSE(full == Status(StatusCode::kProbeCycleSaturated, ""));
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "Internal");
}

TEST(StatusTaxonomy, EveryCodeHasADistinctName) {
  const StatusCode codes[] = {StatusCode::kOk, StatusCode::kTableFull,
                              StatusCode::kProbeCycleSaturated,
                              StatusCode::kInternal};
  std::vector<std::string> names;
  for (const StatusCode code : codes) {
    const std::string name = status_code_name(code);
    EXPECT_NE(name, "Unknown");
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 0) << name;
    names.push_back(name);
  }
  EXPECT_STREQ(status_code_name(static_cast<StatusCode>(std::size(codes))),
               "Unknown");
}

TEST(StatusTaxonomy, RecoverableErrorIsNotALogicError) {
  const RecoverableError e(StatusCode::kProbeCycleSaturated, "cycle of 5");
  EXPECT_EQ(e.code(), StatusCode::kProbeCycleSaturated);
  EXPECT_EQ(e.status().message(), "cycle of 5");
  EXPECT_STREQ(e.what(), "ProbeCycleSaturated: cycle of 5");
  // Recovery loops must be able to catch exhaustion without swallowing
  // bugs: RecoverableError is a runtime_error, never a logic_error.
  static_assert(std::is_base_of_v<std::runtime_error, RecoverableError>);
  static_assert(!std::is_base_of_v<std::logic_error, RecoverableError>);
}

// ---- 1a. gcd probe-cycle hazard (satellite: misclassified saturation) -------

// Table size 40 (composite, > 32): keys 7, 39, 71, ... all have
// key & 31 == 7, so step 8 and gcd(8, 40) = 8 — each key's probe cycle
// visits only the 5 slots {7, 15, 23, 31, 39}. The 6th such key saturates
// its cycle while 35 slots sit free: kProbeCycleSaturated, NOT kTableFull,
// and not an InternalError ("probe sequence failed") as it was classified
// before.
TEST(GcdProbeCycle, SaturationOnCompositeSizeIsRecoverable) {
  hashing::ScalarOpenTable t(40, hashing::ProbeVariant::kKeyDependent);
  for (int i = 0; i < 5; ++i) t.insert(7 + 32 * i);
  EXPECT_EQ(t.entered(), 5u);
  const Status st = t.try_insert(7 + 32 * 5);
  EXPECT_EQ(st.code(), StatusCode::kProbeCycleSaturated);
  EXPECT_EQ(t.entered(), 5u) << "a failed insert must not modify the table";
  try {
    t.insert(7 + 32 * 5);
    FAIL() << "saturated cycle should throw";
  } catch (const RecoverableError& e) {
    EXPECT_EQ(e.code(), StatusCode::kProbeCycleSaturated);
  }
}

TEST(GcdProbeCycle, InsertOrGrowRecoversToPrimeSize) {
  hashing::ScalarOpenTable t(40, hashing::ProbeVariant::kKeyDependent);
  for (int i = 0; i < 5; ++i) t.insert(7 + 32 * i);
  const std::size_t probes = t.insert_or_grow(7 + 32 * 5);
  EXPECT_GE(probes, 1u);
  EXPECT_EQ(t.grow_count(), 1u);
  EXPECT_EQ(t.entered(), 6u);
  // Prime growth: next prime above 80.
  EXPECT_EQ(t.table_size(), 83u);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(t.contains(7 + 32 * i));
}

TEST(GcdProbeCycle, FullTableReportsTableFull) {
  // Size 33 linear probing fills completely; the 34th key sees kTableFull.
  hashing::ScalarOpenTable t(33, hashing::ProbeVariant::kLinear);
  for (Word k = 0; k < 33; ++k) t.insert(k * 100 + 1);
  EXPECT_EQ(t.try_insert(9999).code(), StatusCode::kTableFull);
  EXPECT_GE(t.insert_or_grow(9999), 1u);
  EXPECT_EQ(t.entered(), 34u);
}

TEST(GcdProbeCycle, VectorBatchSaturationIsRecoverable) {
  // The same 5-slot cycle, via the Figure 8 vector inserter: 6 keys with
  // step 8 into size 40 cannot converge although 40 - 6 slots are free.
  VectorMachine m(quiet_config());
  std::vector<Word> table(40, hashing::kUnentered);
  WordVec keys;
  for (int i = 0; i < 6; ++i) keys.push_back(7 + 32 * i);
  hashing::MultiHashStats stats;
  const Status st = hashing::try_multi_hash_open_insert(
      m, table, keys, hashing::ProbeVariant::kKeyDependent, &stats);
  EXPECT_EQ(st.code(), StatusCode::kProbeCycleSaturated);
  EXPECT_GE(stats.iterations, 1u);
  // The keys that did land are still in the table (partial progress is
  // recoverable state, not corruption).
  std::size_t landed = 0;
  for (Word v : table) landed += (v != hashing::kUnentered) ? 1u : 0u;
  EXPECT_EQ(landed, 5u);
}

// ---- 1b. lookup sweep exhaustion (satellite) --------------------------------

TEST(LookupSweep, ExhaustedLanesAreCountedAndReported) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  VectorMachine m(quiet_config());
  std::vector<Word> table(40, hashing::kUnentered);
  // Saturate the step-8 cycle {7,15,23,31,39}, then query an absent key on
  // the same cycle: its lockstep probe never meets an empty slot.
  for (std::size_t i = 0; i < 5; ++i) {
    table[7 + 8 * i] = static_cast<Word>(7 + 32 * i);
  }
  const WordVec queries{7 + 32 * 7};
  hashing::MultiHashLookupStats stats;
  const WordVec slots = hashing::multi_hash_open_find(
      m, table, queries, hashing::ProbeVariant::kKeyDependent, &stats);
  EXPECT_EQ(slots[0], -1) << "absent key must be reported absent";
  EXPECT_EQ(stats.sweep_exhausted_lanes, 1u);
  EXPECT_EQ(counter(reg, "hashing.lookup_sweep_exhausted"), 1u);
}

TEST(LookupSweep, CleanLookupReportsZeroExhausted) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  VectorMachine m(quiet_config());
  std::vector<Word> table(67, hashing::kUnentered);
  const WordVec keys{5, 40, 72};
  hashing::multi_hash_open_insert(m, table, keys,
                                  hashing::ProbeVariant::kKeyDependent);
  hashing::MultiHashLookupStats stats;
  stats.sweep_exhausted_lanes = 99;  // must be reset by the call
  const WordVec slots = hashing::multi_hash_open_find(
      m, table, WordVec{5, 40, 72, 1000},
      hashing::ProbeVariant::kKeyDependent, &stats);
  EXPECT_EQ(std::count(slots.begin(), slots.end(), -1), 1);
  EXPECT_EQ(slots[3], -1);
  EXPECT_EQ(stats.sweep_exhausted_lanes, 0u);
  EXPECT_EQ(counter(reg, "hashing.lookup_sweep_exhausted"), 0u);
}

// ---- 2. fault plan determinism ----------------------------------------------

TEST(FaultPlanTest, SpecGrammar) {
  FaultPlan once(1, "els@3");
  EXPECT_FALSE(once.fires(FaultSite::kElsViolation));
  EXPECT_FALSE(once.fires(FaultSite::kElsViolation));
  EXPECT_TRUE(once.fires(FaultSite::kElsViolation));
  EXPECT_FALSE(once.fires(FaultSite::kElsViolation));
  EXPECT_EQ(once.checks(FaultSite::kElsViolation), 4u);
  EXPECT_EQ(once.fired(FaultSite::kElsViolation), 1u);
  EXPECT_EQ(once.checks(FaultSite::kProbeSaturation), 0u);

  FaultPlan every(1, "probe%2");
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    fired += every.fires(FaultSite::kProbeSaturation);
  }
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(every.total_fired(), 5u);

  FaultPlan never(1, "probe=0.0");
  FaultPlan always(1, "probe=1.0");
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(never.fires(FaultSite::kProbeSaturation));
    EXPECT_TRUE(always.fires(FaultSite::kProbeSaturation));
  }
}

TEST(FaultPlanTest, RateDrawsAreSeedDeterministic) {
  const auto draw_pattern = [](std::uint64_t seed) {
    FaultPlan plan(seed, "probe=0.5");
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits += plan.fires(FaultSite::kProbeSaturation) ? '1' : '0';
    }
    return bits;
  };
  EXPECT_EQ(draw_pattern(42), draw_pattern(42));
  EXPECT_NE(draw_pattern(42), draw_pattern(43));

  // reset() replays the identical sequence.
  FaultPlan plan(7, "els=0.3");
  std::string first, second;
  for (int i = 0; i < 32; ++i) {
    first += plan.fires(FaultSite::kElsViolation) ? '1' : '0';
  }
  plan.reset();
  for (int i = 0; i < 32; ++i) {
    second += plan.fires(FaultSite::kElsViolation) ? '1' : '0';
  }
  EXPECT_EQ(first, second);
}

TEST(FaultPlanTest, SitesDrawIndependentStreams) {
  // Checking one site must not shift another site's decisions: how often a
  // site is checked depends on the workload, and recovery would stop being
  // reproducible if site streams were entangled.
  FaultPlan lone_els(9, "els=0.5");
  FaultPlan lone_probe(9, "probe=0.5");
  FaultPlan mixed(9, "els=0.5,probe=0.5");
  int probe_checks = 0;
  for (int i = 0; i < 64; ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(lone_probe.fires(FaultSite::kProbeSaturation),
                mixed.fires(FaultSite::kProbeSaturation))
          << "at probe check " << probe_checks;
      ++probe_checks;
    }
    EXPECT_EQ(lone_els.fires(FaultSite::kElsViolation),
              mixed.fires(FaultSite::kElsViolation))
        << "at els check " << i;
  }
}

TEST(FaultPlanTest, EverySiteNameParsesAndFiresOnlyItsSite) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    FaultPlan plan(1, std::string(fault_site_name(site)) + "%1");
    for (int check = 0; check < 4; ++check) {
      EXPECT_TRUE(plan.fires(site)) << fault_site_name(site);
      for (std::size_t j = 0; j < kFaultSiteCount; ++j) {
        if (j == i) continue;
        EXPECT_FALSE(plan.fires(static_cast<FaultSite>(j)))
            << fault_site_name(static_cast<FaultSite>(j)) << " under "
            << plan.spec();
      }
    }
    EXPECT_EQ(plan.fired(site), 4u);
    EXPECT_EQ(plan.total_fired(), 4u);
  }
  EXPECT_STRNE(fault_site_name(FaultSite::kElsViolation),
               fault_site_name(FaultSite::kProbeSaturation));
}

TEST(FaultPlanTest, MalformedSpecsAreRejected) {
  EXPECT_THROW(FaultPlan(1, "nosuchsite=0.5"), PreconditionError);
  EXPECT_THROW(FaultPlan(1, "els"), PreconditionError);
  EXPECT_THROW(FaultPlan(1, "els=1.5"), PreconditionError);
  EXPECT_THROW(FaultPlan(1, "els=-0.1"), PreconditionError);
  EXPECT_THROW(FaultPlan(1, "els@0"), PreconditionError);
  EXPECT_THROW(FaultPlan(1, "els%0"), PreconditionError);
  EXPECT_THROW(FaultPlan(1, "els@abc"), PreconditionError);
  EXPECT_THROW(FaultPlan(1, "pool_alloc=0.25"), PreconditionError);
  EXPECT_NO_THROW(FaultPlan(1, ""));
  EXPECT_NO_THROW(FaultPlan(1, "els@1, probe%2\n"));
}

// ---- 2a. els site -----------------------------------------------------------

TEST(ElsFault, SingleViolationYieldsValidDecomposition) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  const WordVec targets = mixed_targets(256, 32, 7);
  std::vector<Word> work(32, 0);
  FaultPlan plan(1, "els@1");
  const ScopedFaultPlan install(&plan);
  VectorMachine m(quiet_config());
  const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
  // The amalgam round loses its contested lanes but every singleton
  // survives, and at most one colliding lane can XOR-coincide with the
  // amalgam; FOL1 simply re-queues the losers, so the result is still a
  // valid (disjoint, conflict-free) decomposition — possibly one round
  // longer than minimal, so Theorem 5 minimality is NOT asserted here.
  EXPECT_EQ(dec.total_lanes(), targets.size());
  EXPECT_TRUE(fol::is_disjoint_cover(dec, targets.size()));
  EXPECT_TRUE(fol::sets_are_conflict_free(dec, targets));
  EXPECT_EQ(counter(reg, "fault.injected.els"), 1u);
}

TEST(ElsFault, EmptyRoundIsRetriedOnce) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  // Two lanes, one address, position labels 0 and 1: the injected amalgam
  // is (0+1)^(1+1) = 3, equal to no label — the round comes back empty and
  // must be retried, not fatal.
  const WordVec targets{5, 5};
  std::vector<Word> work(6, 0);
  FaultPlan plan(1, "els@1");
  const ScopedFaultPlan install(&plan);
  VectorMachine m(quiet_config());
  const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
  EXPECT_EQ(dec.rounds(), 2u);
  EXPECT_TRUE(fol::satisfies_all_theorems(dec, targets));
  EXPECT_EQ(counter(reg, "fault.injected.els"), 1u);
  EXPECT_EQ(counter(reg, "fol1.els_round_retries"), 1u);
  EXPECT_EQ(counter(reg, "fault.recovered.els"), 1u);
}

TEST(ElsFault, PersistentViolationIsStillFatal) {
  // A substrate that NEVER honors ELS is a broken machine, not recoverable
  // data: after the bounded retries the InternalError propagates.
  const WordVec targets{5, 5};
  std::vector<Word> work(6, 0);
  FaultPlan plan(1, "els=1.0");
  const ScopedFaultPlan install(&plan);
  VectorMachine m(quiet_config());
  EXPECT_THROW(fol::fol1_decompose(m, targets, work), InternalError);
}

TEST(ElsFault, FusedAndUnfusedConsumeIdenticalDrawStreams) {
  const WordVec targets = mixed_targets(256, 16, 13);
  const auto run = [&](bool fuse) {
    std::vector<Word> work(16, 0);
    FaultPlan plan(21, "els%2");
    const ScopedFaultPlan install(&plan);
    vm::MachineConfig cfg = quiet_config();
    cfg.fuse = fuse;
    VectorMachine m(cfg);
    const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
    return std::make_pair(dec.sets, plan.checks(FaultSite::kElsViolation));
  };
  const auto fused = run(true);
  const auto unfused = run(false);
  EXPECT_EQ(fused.first, unfused.first)
      << "one els draw per scatter-class instruction, fused or not";
  EXPECT_EQ(fused.second, unfused.second);
}

// ---- 2b. probe site ---------------------------------------------------------

TEST(ProbeFault, UpsertBatchRecoversByRehash) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  FaultPlan plan(2, "probe@1");
  const ScopedFaultPlan install(&plan);
  VectorMachine m(quiet_config());
  hashing::VectorHashMap map;
  WordVec keys, values;
  for (Word k = 0; k < 40; ++k) {
    keys.push_back(k * 7 + 1);
    values.push_back(k * 100);
  }
  map.upsert_batch(m, keys, values);  // first insert attempt is injected
  EXPECT_EQ(map.size(), 40u);
  const WordVec got = map.lookup_batch(m, keys, -1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(got[i], values[i]) << "key " << keys[i];
  }
  EXPECT_EQ(counter(reg, "fault.injected.probe"), 1u);
  EXPECT_EQ(counter(reg, "fault.recovered.probe"), 1u);
  EXPECT_GE(counter(reg, "hashing.upsert_recoveries"), 1u);
}

TEST(ProbeFault, ScalarInsertOrGrowAbsorbsInjection) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  FaultPlan plan(2, "probe@1");
  const ScopedFaultPlan install(&plan);
  hashing::ScalarOpenTable t(67, hashing::ProbeVariant::kKeyDependent);
  EXPECT_GE(t.insert_or_grow(1234), 1u);
  EXPECT_TRUE(t.contains(1234));
  EXPECT_EQ(counter(reg, "fault.injected.probe"), 1u);
  EXPECT_EQ(counter(reg, "fault.recovered.probe"), 1u);
}

// ---- 2c. cross-backend bit-identity under one plan --------------------------

TEST(FaultRecovery, SerialAndSimdBackendsStayBitIdentical) {
  const WordVec targets = mixed_targets(4096, 128, 23);
  const auto run = [&](vm::MachineConfig cfg, vm::ScatterOrder order,
                       bool fuse) {
    cfg.scatter_order = order;
    cfg.fuse = fuse;
    std::vector<Word> work(128, 0);
    FaultPlan plan(31, "els%3");
    const ScopedFaultPlan install(&plan);
    VectorMachine m(cfg);
    const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
    return std::make_pair(dec.sets, std::vector<Word>(work.begin(),
                                                      work.end()));
  };
  for (const vm::ScatterOrder order :
       {vm::ScatterOrder::kForward, vm::ScatterOrder::kReverse,
        vm::ScatterOrder::kShuffled}) {
    for (const bool fuse : {true, false}) {
      SCOPED_TRACE(testing::Message() << "order=" << static_cast<int>(order)
                                      << " fuse=" << fuse);
      const auto serial = run(quiet_config(), order, fuse);
      const auto simd = run(simd_config(), order, fuse);
      EXPECT_EQ(serial.first, simd.first);
      EXPECT_EQ(serial.second, simd.second)
          << "memory images must match lane for lane";
    }
  }
}

TEST(FaultRecovery, EnvSeededSmoke) {
  // CI runs this binary under FOLVEC_FAULT_SPEC / FOLVEC_FAULT_SEED; this
  // test runs a composite workload under that plan (or a representative
  // local one when the variables are unset) and asserts end-to-end
  // correctness, not specific counters.
  std::unique_ptr<FaultPlan> plan = FaultPlan::from_env();
  if (plan == nullptr) {
    plan = std::make_unique<FaultPlan>(123, "els%7,probe@2");
  }
  const ScopedFaultPlan install(plan.get());

  const WordVec targets = mixed_targets(1024, 64, 29);
  std::vector<Word> work(64, 0);
  VectorMachine m(simd_config());
  const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
  EXPECT_TRUE(fol::is_disjoint_cover(dec, targets.size()));
  EXPECT_TRUE(fol::sets_are_conflict_free(dec, targets));
  EXPECT_EQ(dec.total_lanes(), targets.size());

  hashing::VectorHashMap map;
  WordVec keys, values;
  for (Word k = 0; k < 200; ++k) {
    keys.push_back(k * 13 + 5);
    values.push_back(k);
  }
  map.upsert_batch(m, keys, values);
  const WordVec got = map.lookup_batch(m, keys, -1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(got[i], values[i]) << "key " << keys[i];
  }
}

// ---- 3. adaptive degradation ------------------------------------------------

TEST(AdaptiveFallback, HeavyDuplicationDrainsInOnePass) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  const std::size_t n = 4096;
  const WordVec targets(n, 7);  // every lane addresses one area
  std::vector<Word> work(8, 0);

  vm::MachineConfig cfg = quiet_config();
  VectorMachine m(cfg);
  const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
  EXPECT_EQ(dec.rounds(), n) << "Theorem 5: rounds == max multiplicity";
  EXPECT_TRUE(fol::satisfies_all_theorems(dec, targets));
  EXPECT_EQ(dec.drained_lanes, n - 1)
      << "round 1 assigns the survivor, the drain takes the rest";
  EXPECT_EQ(counter(reg, "fol1.adaptive_drains"), 1u);

  // The drain must collapse the Theorem 6 quadratic: the pure vector path
  // issues ~n scatter rounds over the remainder, the adaptive one charges a
  // single O(n) scalar pass on top of one vector round.
  cfg.adaptive = false;
  VectorMachine pure(cfg);
  std::fill(work.begin(), work.end(), 0);
  const fol::Decomposition pure_dec = fol::fol1_decompose(pure, targets, work);
  EXPECT_EQ(pure_dec.drained_lanes, 0u);
  const auto params = vm::CostParams::s810_like();
  const double adaptive_us = m.cost().microseconds(params);
  const double pure_us = pure.cost().microseconds(params);
  EXPECT_LT(adaptive_us, 0.1 * pure_us)
      << "adaptive " << adaptive_us << "us vs pure " << pure_us << "us";
  // Same sets either way: all-same input makes the assignment unique up to
  // which lane survives round 1, and ELS forward order keeps that stable.
  EXPECT_EQ(dec.sets.size(), pure_dec.sets.size());
}

TEST(AdaptiveFallback, BelowThresholdsStaysOnVectorPath) {
  telemetry::MetricsRegistry reg;
  const telemetry::ScopedMetrics scoped(reg);
  const WordVec targets(512, 3);  // heavy sharing but under min_remaining
  std::vector<Word> work(4, 0);
  VectorMachine m(quiet_config());
  const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
  EXPECT_EQ(dec.rounds(), 512u);
  EXPECT_EQ(dec.drained_lanes, 0u);
  EXPECT_EQ(counter(reg, "fol1.adaptive_drains"), 0u);
}

// The drain trigger every FOL flavour shares: a single-address input of n
// lanes keeps one survivor per round, so round 1 leaves n - 1 unassigned.
// With exactly kDrainMinRemaining left the tail drains; one lane fewer and
// it finishes on the vector path.
constexpr std::size_t kDrainBoundary = fol::detail::kDrainMinRemaining;

TEST(AdaptiveFallback, Fol1DrainTriggersAtTheMinRemainingBoundary) {
  for (const std::size_t n : {kDrainBoundary + 1, kDrainBoundary}) {
    const bool drains = n > kDrainBoundary;
    telemetry::MetricsRegistry reg;
    const telemetry::ScopedMetrics scoped(reg);
    const WordVec targets(n, 5);
    std::vector<Word> work(8, 0);
    VectorMachine m;
    const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
    EXPECT_EQ(dec.rounds(), n);
    EXPECT_EQ(dec.drained_lanes, drains ? n - 1 : 0u) << "n = " << n;
    EXPECT_EQ(counter(reg, "fol1.adaptive_drains"), drains ? 1u : 0u);
  }
}

TEST(AdaptiveFallback, OrderedDrainTriggersAtTheMinRemainingBoundary) {
  for (const std::size_t n : {kDrainBoundary + 1, kDrainBoundary}) {
    const bool drains = n > kDrainBoundary;
    telemetry::MetricsRegistry reg;
    const telemetry::ScopedMetrics scoped(reg);
    const WordVec targets(n, 5);
    std::vector<Word> work(8, 0);
    VectorMachine m;
    const fol::Decomposition dec =
        fol::fol1_decompose_ordered(m, targets, work);
    EXPECT_EQ(dec.rounds(), n);
    EXPECT_EQ(dec.drained_lanes, drains ? n - 1 : 0u) << "n = " << n;
    EXPECT_EQ(counter(reg, "fol1_ordered.adaptive_drains"), drains ? 1u : 0u);
  }
}

TEST(AdaptiveFallback, FolStarDrainTriggersAtTheMinRemainingBoundary) {
  for (const std::size_t n : {kDrainBoundary + 1, kDrainBoundary}) {
    const bool drains = n > kDrainBoundary;
    telemetry::MetricsRegistry reg;
    const telemetry::ScopedMetrics scoped(reg);
    const std::vector<WordVec> lanes{WordVec(n, 5)};
    std::vector<Word> work(8, 0);
    VectorMachine m;
    const fol::StarDecomposition dec = fol::fol_star_decompose(m, lanes, work);
    EXPECT_EQ(dec.rounds(), n);
    EXPECT_EQ(dec.drained_tuples, drains ? n - 1 : 0u) << "n = " << n;
    EXPECT_EQ(counter(reg, "fol_star.adaptive_drains"), drains ? 1u : 0u);
  }
}

TEST(AdaptiveFallback, ConfigKnobsDisableTheDrain) {
  const WordVec targets(4096, 1);
  std::vector<Word> work(2, 0);
  vm::MachineConfig cfg = quiet_config();
  cfg.adaptive = false;
  VectorMachine m(cfg);
  const fol::Decomposition dec = fol::fol1_decompose(m, targets, work);
  EXPECT_EQ(dec.drained_lanes, 0u);
  EXPECT_EQ(dec.rounds(), 4096u);
}

TEST(AdaptiveFallback, OrderedDrainMatchesPureOrderedExactly) {
  // The ordered survivor rule (earliest remaining occurrence wins) makes
  // the drained decomposition provably identical to the pure one — compare
  // them set for set on a mixed workload.
  const std::size_t n = 4096;
  WordVec targets(n);
  Xoshiro256 rng(41);
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = static_cast<Word>(rng.in_range(0, 15));  // multiplicity ~256
  }
  std::vector<Word> work(16, 0);

  vm::MachineConfig cfg = quiet_config();
  VectorMachine adaptive(cfg);
  const fol::Decomposition drained =
      fol::fol1_decompose_ordered(adaptive, targets, work);
  EXPECT_GT(drained.drained_lanes, 0u);

  cfg.adaptive = false;
  VectorMachine pure(cfg);
  std::fill(work.begin(), work.end(), 0);
  const fol::Decomposition exact =
      fol::fol1_decompose_ordered(pure, targets, work);
  EXPECT_EQ(exact.drained_lanes, 0u);
  EXPECT_EQ(drained.sets, exact.sets);
}

TEST(AdaptiveFallback, FolStarDrainsPathologicalTuples) {
  // All tuples address the same pair of areas: every round assigns exactly
  // one tuple (via the scalar rescue), the canonical FOL* worst case.
  const std::size_t n = 4096;
  std::vector<WordVec> lanes(2);
  lanes[0].assign(n, 0);
  lanes[1].assign(n, 1);
  std::vector<Word> work(2, 0);
  VectorMachine m(quiet_config());
  const fol::StarDecomposition dec =
      fol::fol_star_decompose(m, lanes, work, /*max_rounds=*/0);
  EXPECT_GT(dec.drained_tuples, 0u);
  EXPECT_EQ(dec.rounds(), n) << "conflicting tuples still serialize";
  EXPECT_EQ(dec.unassigned, 0u);
  std::size_t total = 0;
  for (const auto& s : dec.sets) {
    EXPECT_EQ(s.size(), 1u);
    total += s.size();
  }
  EXPECT_EQ(total, n);

  // Bounded decompositions never drain.
  std::fill(work.begin(), work.end(), 0);
  VectorMachine bounded_m(quiet_config());
  const fol::StarDecomposition bounded =
      fol::fol_star_decompose(bounded_m, lanes, work, /*max_rounds=*/3);
  EXPECT_EQ(bounded.drained_tuples, 0u);
  EXPECT_EQ(bounded.rounds(), 3u);
  EXPECT_EQ(bounded.unassigned, n - 3);
}

}  // namespace
}  // namespace folvec

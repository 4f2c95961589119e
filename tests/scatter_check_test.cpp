// ScatterCheck: the hazard auditor must pinpoint the offending lanes and
// addresses, not merely observe that a decomposition failed downstream.
#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "fol/fol1.h"
#include "fol/fol_star.h"
#include "fol/invariants.h"
#include "support/faultsim.h"
#include "support/prng.h"
#include "vm/checker.h"

namespace folvec {
namespace {

using vm::AuditError;
using vm::ConflictWindow;
using vm::Hazard;
using vm::HazardKind;
using vm::MachineConfig;
using vm::Mask;
using vm::ScatterOrder;
using vm::VectorMachine;
using vm::WindowKind;
using vm::Word;
using vm::WordVec;

MachineConfig audited(ScatterOrder order = ScatterOrder::kForward,
                      bool audit_throw = true) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.audit = true;
  cfg.audit_throw = audit_throw;
  return cfg;
}

TEST(ScatterCheckTest, AuditOffRecordsNothing) {
  MachineConfig cfg;
  cfg.audit = false;
  VectorMachine m(cfg);
  WordVec table(4, 0);
  m.scatter(table, WordVec{0, 2, 0}, WordVec{5, 9, 7});  // unsanctioned dup
  EXPECT_FALSE(m.audit_enabled());
  EXPECT_TRUE(m.hazards().empty());
}

TEST(ScatterCheckTest, UnsanctionedDuplicateIsLanePrecise) {
  VectorMachine m(audited());
  WordVec table(4, 0);
  EXPECT_THROW(m.scatter(table, WordVec{0, 2, 0}, WordVec{5, 9, 7}),
               AuditError);
  ASSERT_EQ(m.hazards().size(), 1u);
  const Hazard& h = m.hazards()[0];
  EXPECT_EQ(h.kind, HazardKind::kUnsanctionedDuplicate);
  EXPECT_EQ(h.address, 0);
  EXPECT_EQ(h.lanes, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(h.expected, (WordVec{5, 7}));
}

TEST(ScatterCheckTest, EqualValueDuplicatesAreBenign) {
  VectorMachine m(audited());
  WordVec table(4, 0);
  // A wavefront writing the same d+1 to a shared neighbour is no race.
  EXPECT_NO_THROW(m.scatter(table, WordVec{1, 1, 3}, WordVec{7, 7, 9}));
  EXPECT_TRUE(m.hazards().empty());
}

TEST(ScatterCheckTest, OrderedScatterDuplicatesAreSanctioned) {
  VectorMachine m(audited());
  WordVec table(4, 0);
  EXPECT_NO_THROW(
      m.scatter_ordered(table, WordVec{0, 0}, WordVec{5, 7}));
  EXPECT_TRUE(m.hazards().empty());
  EXPECT_EQ(table[0], 7);  // last lane wins, deterministically
}

TEST(ScatterCheckTest, ConflictWindowSanctionsDuplicates) {
  VectorMachine m(audited());
  WordVec table(4, 0);
  const ConflictWindow window(m, table, WindowKind::kDataRace, "test race");
  EXPECT_NO_THROW(m.scatter(table, WordVec{0, 2, 0}, WordVec{5, 9, 7}));
  EXPECT_TRUE(m.hazards().empty());
}

TEST(ScatterCheckTest, OutOfBoundsGatherListsEveryBadLane) {
  VectorMachine m(audited());
  const WordVec table{10, 11};
  EXPECT_THROW(m.gather(table, WordVec{0, 9, -1, 1}), PreconditionError);
  ASSERT_EQ(m.hazards().size(), 1u);
  const Hazard& h = m.hazards()[0];
  EXPECT_EQ(h.kind, HazardKind::kOutOfBounds);
  EXPECT_EQ(h.lanes, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(h.expected, (WordVec{9, -1}));
}

TEST(ScatterCheckTest, LengthMismatchIsRecordedAndThrowsPrecondition) {
  VectorMachine m(audited());
  WordVec table(4, 0);
  EXPECT_THROW(m.scatter(table, WordVec{0, 1}, WordVec{5}),
               PreconditionError);
  ASSERT_EQ(m.hazards().size(), 1u);
  EXPECT_EQ(m.hazards()[0].kind, HazardKind::kLengthMismatch);
}

TEST(ScatterCheckTest, ClobberedWorkGatherIsFlagged) {
  VectorMachine m(audited());
  WordVec work(4, 0);
  const WordVec idx{1, 1, 2};
  const fol::Decomposition dec = fol::fol1_decompose(m, idx, work);
  EXPECT_TRUE(fol::satisfies_all_theorems(dec, idx));
  // The round's labels are still sitting in work[1] and work[2]: reading
  // them back as if they were data is a use-after-round hazard.
  EXPECT_THROW(m.gather(work, WordVec{1}), AuditError);
  ASSERT_EQ(m.hazards().count(HazardKind::kClobberedWorkRead), 1u);
  EXPECT_EQ(m.hazards()[0].address, 1);
}

TEST(ScatterCheckTest, RetireWorkClearsClobberMarks) {
  VectorMachine m(audited());
  WordVec work(4, 0);
  fol::fol1_decompose(m, WordVec{1, 1, 2}, work);
  m.retire_work(work);
  EXPECT_NO_THROW(m.gather(work, WordVec{1}));
  EXPECT_TRUE(m.hazards().empty());
}

TEST(ScatterCheckTest, OverwriteClearsClobberMarks) {
  VectorMachine m(audited());
  WordVec work(4, 0);
  fol::fol1_decompose(m, WordVec{1, 1, 2}, work);
  m.fill(work, 0);
  EXPECT_NO_THROW(m.load(work, 0, work.size()));
  EXPECT_TRUE(m.hazards().empty());
}

TEST(ScatterCheckTest, ContiguousLoadOfClobberedWorkIsFlagged) {
  VectorMachine m(audited());
  WordVec work(4, 0);
  fol::fol1_decompose(m, WordVec{1, 1, 2}, work);
  EXPECT_THROW(m.load(work, 0, work.size()), AuditError);
  EXPECT_EQ(m.hazards().count(HazardKind::kClobberedWorkRead), 1u);
}

// The deterministic injection case: lanes 0 and 1 collide at address 7 with
// labels 0 and 1; the injected amalgam is (0+1)^(1+1) = 3, which is neither
// label, so the auditor must name exactly lanes {0, 1} at address 7.
TEST(ScatterCheckTest, ElsViolationPinpointsAmalgamatedLanes) {
  MachineConfig cfg = audited();
  FaultPlan els(1, "els%1");  // every unmasked scatter violates ELS
  const ScopedFaultPlan inject(&els);
  VectorMachine m(cfg);
  WordVec work(8, 0);
  EXPECT_THROW(fol::fol1_decompose(m, WordVec{7, 7, 3}, work), AuditError);
  const Hazard* h = m.hazards().first(HazardKind::kElsViolation);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->address, 7);
  EXPECT_EQ(h->lanes, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(h->expected, (WordVec{0, 1}));
  EXPECT_EQ(h->found, 3);
  EXPECT_EQ(h->context, "FOL1 label round");
}

// AuditError derives InternalError, so callers asserting "the substrate is
// broken" keep passing under audit.
TEST(ScatterCheckTest, AuditErrorIsAnInternalError) {
  MachineConfig cfg = audited();
  FaultPlan els(1, "els%1");  // every unmasked scatter violates ELS
  const ScopedFaultPlan inject(&els);
  VectorMachine m(cfg);
  WordVec work(8, 0);
  EXPECT_THROW(fol::fol1_decompose(m, WordVec{7, 7, 3}, work), InternalError);
}

// With audit_throw off the auditor records hazards without changing control
// flow; FOL1 then fails on its own empty-set invariant, and the report still
// holds the lane-precise diagnosis.
TEST(ScatterCheckTest, NonThrowingAuditStillRecords) {
  MachineConfig cfg = audited(ScatterOrder::kForward, /*audit_throw=*/false);
  FaultPlan els(1, "els%1");  // every unmasked scatter violates ELS
  const ScopedFaultPlan inject(&els);
  VectorMachine m(cfg);
  WordVec work(8, 0);
  EXPECT_THROW(fol::fol1_decompose(m, WordVec{7, 7, 3}, work), InternalError);
  EXPECT_GE(m.hazards().count(HazardKind::kElsViolation), 1u);
  m.clear_hazards();
  EXPECT_TRUE(m.hazards().empty());
}

TEST(ScatterCheckTest, TheoremViolationIsReported) {
  VectorMachine m(audited());
  EXPECT_THROW(m.checker()->audit_theorem_violation("FOL1", "test detail"),
               AuditError);
  EXPECT_EQ(m.hazards().count(HazardKind::kTheoremViolation), 1u);
}

TEST(ScatterCheckTest, TupleConflictNamesBothTuples) {
  VectorMachine m(audited());
  // Tuple 0 touches {0, 1}; tuple 1 touches {1, 2}: address 1 is shared.
  const std::vector<WordVec> ivs{WordVec{0, 1}, WordVec{1, 2}};
  const std::vector<std::size_t> set{0, 1};
  EXPECT_THROW(m.checker()->audit_tuple_set(set, ivs), AuditError);
  const Hazard* h = m.hazards().first(HazardKind::kTupleConflict);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->address, 1);
  EXPECT_EQ(h->lanes, (std::vector<std::size_t>{0, 1}));
}

TEST(ScatterCheckTest, FolStarUnderAuditIsHazardFree) {
  VectorMachine m(audited());
  // Two binary tuples sharing address 3 must split into two rounds without
  // any hazard (the scalar rescue is an audited scalar_store now).
  const std::vector<WordVec> ivs{WordVec{3, 3}, WordVec{5, 6}};
  WordVec work(8, 0);
  const fol::StarDecomposition dec = fol::fol_star_decompose(m, ivs, work);
  EXPECT_EQ(dec.sets.size(), 2u);
  EXPECT_TRUE(m.hazards().empty());
}

TEST(ScatterCheckTest, ScalarStoreIsAuditedAndTicksScalarMem) {
  VectorMachine m(audited());
  WordVec table(4, 0);
  m.scalar_store(table, 2, 9);
  EXPECT_EQ(table[2], 9);
  EXPECT_EQ(m.cost().instructions(vm::OpClass::kScalarMem), 1u);
  EXPECT_THROW(m.scalar_store(table, 4, 1), PreconditionError);
}

TEST(ScatterCheckTest, EnvironmentVariableFlipsDefault) {
  ASSERT_EQ(setenv("FOLVEC_AUDIT", "1", 1), 0);
  EXPECT_TRUE(MachineConfig::audit_default());
  ASSERT_EQ(setenv("FOLVEC_AUDIT", "0", 1), 0);
  EXPECT_FALSE(MachineConfig::audit_default());
  unsetenv("FOLVEC_AUDIT");
}

TEST(ScatterCheckTest, ReportPrettyPrints) {
  VectorMachine m(audited());
  WordVec table(4, 0);
  try {
    m.scatter(table, WordVec{0, 2, 0}, WordVec{5, 9, 7});
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsanctioned-duplicate"), std::string::npos);
    EXPECT_NE(what.find("{0, 2}"), std::string::npos);
  }
  const std::string report = m.hazards().to_string();
  EXPECT_NE(report.find("1 hazard"), std::string::npos);
  EXPECT_NE(report.find("table[0]"), std::string::npos);
}

// ---- fuzzing the auditor against the injection substrate -------------------

class ScatterCheckFuzzTest : public ::testing::TestWithParam<ScatterOrder> {};

// Direct scatter/gather level: the oracle recomputes exactly which addresses
// receive an amalgam that equals none of the colliding labels, and the
// auditor must report exactly those addresses with exactly those lanes.
TEST_P(ScatterCheckFuzzTest, AuditorPinpointsInjectedAmalgams) {
  Xoshiro256 rng(0xf0522ed ^ static_cast<std::uint64_t>(GetParam()));
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.in_range(0, 18));
    const auto table_size = static_cast<Word>(1 + rng.in_range(0, 9));
    WordVec idx(n);
    for (auto& v : idx) v = rng.in_range(0, table_size - 1);
    // Labels are the lane numbers (distinct), as in FOL1.
    MachineConfig cfg = audited(GetParam());
    FaultPlan els(1, "els%1");  // every unmasked scatter violates ELS
    const ScopedFaultPlan inject(&els);
    VectorMachine m(cfg);
    WordVec table(static_cast<std::size_t>(table_size), 0);
    WordVec labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<Word>(i);

    // Oracle: collision groups and their XOR amalgam.
    std::unordered_map<Word, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < n; ++i) groups[idx[i]].push_back(i);
    std::unordered_map<Word, std::vector<std::size_t>> detectable;
    for (const auto& [addr, lanes] : groups) {
      if (lanes.size() < 2) continue;
      Word amalgam = 0;
      for (std::size_t lane : lanes) amalgam ^= labels[lane] + 1;
      const bool coincides =
          std::any_of(lanes.begin(), lanes.end(), [&](std::size_t lane) {
            return labels[lane] == amalgam;
          });
      if (!coincides) detectable[addr] = lanes;
    }

    const ConflictWindow window(m, table, WindowKind::kLabelRound, "fuzz");
    m.scatter(table, idx, labels);
    if (detectable.empty()) {
      EXPECT_NO_THROW(m.gather(table, idx));
      EXPECT_TRUE(m.hazards().empty());
      continue;
    }
    EXPECT_THROW(m.gather(table, idx), AuditError);
    EXPECT_EQ(m.hazards().size(), detectable.size());
    for (const Hazard& h : m.hazards().hazards()) {
      EXPECT_EQ(h.kind, HazardKind::kElsViolation);
      const auto it = detectable.find(h.address);
      ASSERT_NE(it, detectable.end())
          << "auditor flagged address " << h.address << " spuriously";
      EXPECT_EQ(h.lanes, it->second);
    }
  }
}

// End-to-end through FOL1: under injection either the auditor names the
// amalgamated lanes of some round, or — when every amalgam happens to
// coincide with a colliding label — the run must degrade to a decomposition
// that still satisfies every theorem. Silent mis-decomposition is the one
// outcome the auditor exists to rule out.
TEST_P(ScatterCheckFuzzTest, Fol1InjectionNeverMisdecomposesSilently) {
  Xoshiro256 rng(0xf01f22 ^ static_cast<std::uint64_t>(GetParam()));
  int detected = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.in_range(0, 14));
    const Word span = 1 + rng.in_range(0, 7);
    WordVec idx(n);
    for (auto& v : idx) v = rng.in_range(0, span - 1);

    MachineConfig cfg = audited(GetParam());
    FaultPlan els(1, "els%1");  // every unmasked scatter violates ELS
    const ScopedFaultPlan inject(&els);
    VectorMachine m(cfg);
    WordVec work(static_cast<std::size_t>(span), 0);
    try {
      const fol::Decomposition dec = fol::fol1_decompose(m, idx, work);
      EXPECT_TRUE(fol::satisfies_all_theorems(dec, idx))
          << "injection slipped an invalid decomposition past the auditor";
    } catch (const AuditError&) {
      ++detected;
      const Hazard* h = m.hazards().first(HazardKind::kElsViolation);
      ASSERT_NE(h, nullptr);
      // Lane-precision: the report names at least two colliding writers and
      // the observed amalgam is none of their labels.
      EXPECT_GE(h->lanes.size(), 2u);
      EXPECT_EQ(std::count(h->expected.begin(), h->expected.end(), h->found),
                0);
    }
  }
  // With up to 15 lanes over at most 8 addresses, collisions (and thus
  // detections) must occur many times in 200 reps.
  EXPECT_GT(detected, 20);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ScatterCheckFuzzTest,
                         ::testing::Values(ScatterOrder::kForward,
                                           ScatterOrder::kReverse,
                                           ScatterOrder::kShuffled));

}  // namespace
}  // namespace folvec

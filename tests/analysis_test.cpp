// Static hazard verifier: abstract lane domains, per-class verdicts, the
// recorded op-graph IR, offline replay, audit elision, and the soundness
// contract (a ProvenSafe op must never trip a runtime ScatterCheck hazard —
// enforced here by differential fuzz across scatter orders, backends, and
// fuse modes).
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/facts.h"
#include "analysis/interval_set.h"
#include "analysis/opgraph.h"
#include "analysis/verdict.h"
#include "analysis/verifier.h"
#include "fol/fol1.h"
#include "support/prng.h"
#include "vm/checker.h"
#include "vm/machine.h"

namespace folvec {
namespace {

using analysis::Analyzer;
using analysis::ClobberOverlap;
using analysis::HazardClass;
using analysis::IntervalSet;
using analysis::LaneFacts;
using analysis::OpGraph;
using analysis::OpVerdicts;
using analysis::Verdict;
using analysis::WindowCtx;
using vm::BackendKind;
using vm::ConflictWindow;
using vm::HazardKind;
using vm::MachineConfig;
using vm::ScatterOrder;
using vm::SimdLevel;
using vm::VectorMachine;
using vm::WindowKind;
using vm::Word;
using vm::WordVec;

MachineConfig analyzed(bool elide = true, bool audit_throw = true) {
  MachineConfig cfg;
  cfg.audit = true;
  cfg.audit_throw = audit_throw;
  cfg.analysis = true;
  cfg.audit_elide = elide;
  return cfg;
}

std::uint64_t verdicts_of(const Analyzer::Stats& st, HazardClass c,
                          Verdict v) {
  return st.class_verdicts[static_cast<std::size_t>(c)]
                          [static_cast<std::size_t>(v)];
}

// ---- abstract lane domains (facts.h) ----------------------------------------

TEST(LaneFactsTest, IotaIsTightDistinctSorted) {
  const LaneFacts f = analysis::facts_iota(8, 3, 1);
  EXPECT_TRUE(f.has_range);
  EXPECT_EQ(f.lo, 3);
  EXPECT_EQ(f.hi, 10);
  EXPECT_TRUE(f.tight);
  EXPECT_TRUE(f.distinct);
  EXPECT_TRUE(f.sorted);
  EXPECT_TRUE(f.covers_range());
}

TEST(LaneFactsTest, IotaOverflowDropsToUnknown) {
  const LaneFacts f =
      analysis::facts_iota(4, std::numeric_limits<Word>::max() - 1, 1);
  EXPECT_FALSE(f.has_range);
  EXPECT_FALSE(f.distinct);
}

TEST(LaneFactsTest, AddScalarShiftsAndPreservesStructure) {
  const LaneFacts f =
      analysis::facts_add_scalar(analysis::facts_iota(4, 0, 1), 100);
  EXPECT_TRUE(f.has_range);
  EXPECT_EQ(f.lo, 100);
  EXPECT_EQ(f.hi, 103);
  EXPECT_TRUE(f.tight);
  EXPECT_TRUE(f.distinct);
  EXPECT_TRUE(f.sorted);
}

TEST(LaneFactsTest, AddScalarOverflowDropsToUnknown) {
  const LaneFacts in = analysis::facts_observed(
      2, std::numeric_limits<Word>::max() - 1, std::numeric_limits<Word>::max());
  const LaneFacts f = analysis::facts_add_scalar(in, 2);
  EXPECT_FALSE(f.has_range);
}

TEST(LaneFactsTest, ModScalarIsIdentityOnItsResidueInterval) {
  const LaneFacts in = analysis::facts_iota(5, 0, 1);  // [0, 4], distinct
  const LaneFacts same = analysis::facts_mod_scalar(in, 7);
  EXPECT_EQ(same, in);  // already within [0, 7): every claim survives
  const LaneFacts wide = analysis::facts_mod_scalar(
      analysis::facts_iota(10, 0, 1), 7);  // wraps: only the residue range
  EXPECT_TRUE(wide.has_range);
  EXPECT_EQ(wide.lo, 0);
  EXPECT_EQ(wide.hi, 6);
  EXPECT_FALSE(wide.tight);
  EXPECT_FALSE(wide.distinct);
}

TEST(LaneFactsTest, SubsetDropsTightnessKeepsOrder) {
  const LaneFacts f =
      analysis::facts_subset(analysis::facts_iota(8, 0, 1), 5);
  EXPECT_EQ(f.lanes, 5u);
  EXPECT_TRUE(f.has_range);
  EXPECT_FALSE(f.tight);  // the endpoint lanes may have been dropped
  EXPECT_TRUE(f.distinct);
  EXPECT_TRUE(f.sorted);
}

TEST(LaneFactsTest, ObservedIsTightButNotDistinct) {
  const LaneFacts f = analysis::facts_observed(6, -3, 12);
  EXPECT_TRUE(f.has_range);
  EXPECT_TRUE(f.tight);  // a scan attains both endpoints
  EXPECT_FALSE(f.distinct);  // the scan does not dedup
}

TEST(LaneFactsTest, PigeonholeProvesDuplicates) {
  LaneFacts f = analysis::facts_observed(5, 0, 3);  // 5 lanes, 4 values
  EXPECT_TRUE(f.proven_duplicates());
  f = analysis::facts_observed(4, 0, 3);
  EXPECT_FALSE(f.proven_duplicates());
  EXPECT_TRUE(analysis::facts_splat(4, 7).constant());
}

// ---- verdict judges (verdict.h) ---------------------------------------------

TEST(JudgeTest, BoundsTightEndpointOutsideTableIsHazard) {
  const LaneFacts oob = analysis::facts_iota(5, 7, 1);  // [7, 11] tight
  EXPECT_EQ(analysis::judge_bounds(oob, 10, /*masked=*/false),
            Verdict::kProvenHazard);
  // Masked: the offending endpoint lane may be inactive.
  EXPECT_EQ(analysis::judge_bounds(oob, 10, /*masked=*/true),
            Verdict::kUnknown);
  // Untight: the endpoint may not be attained by any lane.
  EXPECT_EQ(analysis::judge_bounds(analysis::facts_subset(oob, 3), 10, false),
            Verdict::kUnknown);
  EXPECT_EQ(analysis::judge_bounds(oob, 12, false), Verdict::kProvenSafe);
  EXPECT_EQ(analysis::judge_bounds(LaneFacts::unknown(4), 10, false),
            Verdict::kUnknown);
}

TEST(JudgeTest, OverlapSanctionsAndPigeonholeLoss) {
  const LaneFacts distinct = analysis::facts_iota(4, 0, 1);
  const LaneFacts dup = analysis::facts_splat(3, 2);       // proven duplicates
  const LaneFacts vals_distinct = analysis::facts_iota(3, 10, 1);
  const LaneFacts vals_const = analysis::facts_splat(3, 9);
  const LaneFacts unknown = LaneFacts::unknown(3);

  using analysis::judge_scatter_overlap;
  EXPECT_EQ(judge_scatter_overlap(dup, vals_distinct, WindowCtx::kNone, false,
                                  /*ordered=*/true),
            Verdict::kProvenSafe);  // VSTX defines the survivor
  EXPECT_EQ(judge_scatter_overlap(dup, vals_distinct, WindowCtx::kLabelRound,
                                  false, false),
            Verdict::kProvenSafe);  // the FOL sanction
  EXPECT_EQ(judge_scatter_overlap(distinct, unknown, WindowCtx::kNone, false,
                                  false),
            Verdict::kProvenSafe);  // no collisions at all
  EXPECT_EQ(judge_scatter_overlap(unknown, vals_const, WindowCtx::kNone, false,
                                  false),
            Verdict::kProvenSafe);  // collisions benign
  // Pigeonhole duplicates carrying pairwise-distinct values lose data even
  // inside a sanctioning data-race window (static-stronger).
  EXPECT_EQ(judge_scatter_overlap(dup, vals_distinct, WindowCtx::kDataRace,
                                  false, false),
            Verdict::kProvenHazard);
  EXPECT_EQ(judge_scatter_overlap(unknown, unknown, WindowCtx::kDataRace,
                                  false, false),
            Verdict::kUnknown);
}

TEST(JudgeTest, ReadClobberNeedsTightEdgeInExactSpan) {
  const LaneFacts tight = analysis::facts_iota(4, 0, 1);
  ClobberOverlap hit;
  hit.any = true;
  hit.lo_hit = true;
  EXPECT_EQ(analysis::judge_read_clobber(tight, /*in_window=*/true, hit),
            Verdict::kProvenSafe);  // in-window reads are exempt
  EXPECT_EQ(analysis::judge_read_clobber(tight, false, ClobberOverlap{}),
            Verdict::kProvenSafe);  // no intersection
  EXPECT_EQ(analysis::judge_read_clobber(tight, false, hit),
            Verdict::kProvenHazard);
  ClobberOverlap vague;
  vague.any = true;  // intersects, but no tight endpoint lands in a span
  EXPECT_EQ(analysis::judge_read_clobber(tight, false, vague),
            Verdict::kUnknown);
  EXPECT_EQ(analysis::judge_read_clobber(analysis::facts_subset(tight, 2),
                                         false, hit),
            Verdict::kUnknown);  // untight: the edge lane may be absent
}

// ---- interval set -----------------------------------------------------------

TEST(IntervalSetTest, AddMergesOverlappingAndAdjacent) {
  static const Word arena[32] = {};
  IntervalSet<Word> s;
  s.add(arena + 0, arena + 4);
  s.add(arena + 8, arena + 12);
  EXPECT_EQ(s.size(), 2u);
  s.add(arena + 4, arena + 8);  // adjacent on both sides: one interval
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(arena + 0));
  EXPECT_TRUE(s.contains(arena + 11));
  EXPECT_FALSE(s.contains(arena + 12));
  EXPECT_TRUE(s.overlaps(arena + 10, arena + 20));
  EXPECT_FALSE(s.overlaps(arena + 12, arena + 20));
}

TEST(IntervalSetTest, EraseSplitsStraddlingIntervals) {
  static const Word arena[32] = {};
  IntervalSet<Word> s;
  s.add(arena + 0, arena + 10);
  s.erase(arena + 3, arena + 5);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(arena + 2));
  EXPECT_FALSE(s.contains(arena + 3));
  EXPECT_FALSE(s.contains(arena + 4));
  EXPECT_TRUE(s.contains(arena + 5));
  std::vector<std::pair<const Word*, const Word*>> ivals;
  s.for_each([&](const Word* b, const Word* e) { ivals.emplace_back(b, e); });
  ASSERT_EQ(ivals.size(), 2u);
  EXPECT_EQ(ivals[0], std::make_pair(arena + 0, arena + 3));
  EXPECT_EQ(ivals[1], std::make_pair(arena + 5, arena + 10));
}

// ---- machine integration: proofs, elision, graph replay ---------------------

TEST(AnalysisMachineTest, ProvenSafePermutationElidesAndReplaysClean) {
  VectorMachine m(analyzed());
  m.analyzer()->set_record_graph(true);
  WordVec table(16, 0);
  const WordVec idx = m.iota(16);        // distinct, tight, in bounds
  const WordVec vals = m.iota(16, 100);
  m.scatter(table, idx, vals);
  const WordVec back = m.gather(table, idx);
  EXPECT_EQ(back, vals);
  EXPECT_TRUE(m.hazards().empty());

  const Analyzer::Stats& st = m.analyzer()->stats();
  EXPECT_EQ(st.mem_ops, 2u);
  EXPECT_EQ(st.mem_safe, 2u);
  EXPECT_EQ(st.mem_hazard, 0u);
  EXPECT_EQ(st.scatter_ops, 1u);
  EXPECT_EQ(st.scatter_safe, 1u);
  EXPECT_GE(st.elided_instructions, 1u);
  EXPECT_GE(st.elided_lanes, 16u);

  // The offline replay re-derives every verdict from the recorded graph.
  const analysis::ReplayResult r = analysis::verify(m.analyzer()->graph());
  EXPECT_TRUE(r.clean()) << (r.mismatches.empty() ? "" : r.mismatches[0]);
  EXPECT_EQ(r.checked_ops, 2u);
  EXPECT_EQ(r.safe_ops, 2u);
}

TEST(AnalysisMachineTest, GraphJsonRoundTripReplaysIdentically) {
  VectorMachine m(analyzed());
  m.analyzer()->set_record_graph(true);
  WordVec table(12, 0);
  const WordVec safe_idx = m.iota(12);
  m.scatter(table, safe_idx, m.iota(12, 50));
  WordVec host_idx{3, 3, 7};  // no facts: stays unknown
  m.scatter_ordered(table, host_idx, m.iota(3, 1));
  const WordVec back = m.gather(table, safe_idx);
  EXPECT_EQ(back.size(), 12u);

  const OpGraph& g = m.analyzer()->graph();
  const std::string compact = g.to_json();
  const std::string pretty = g.to_json(2);
  const OpGraph g2 = OpGraph::from_json(compact);
  const OpGraph g3 = OpGraph::from_json(pretty);
  ASSERT_EQ(g2.nodes.size(), g.nodes.size());
  ASSERT_EQ(g3.nodes.size(), g.nodes.size());
  EXPECT_EQ(g2.to_json(), compact);  // serialization is a fixed point

  const analysis::ReplayResult live = analysis::verify(g);
  const analysis::ReplayResult parsed = analysis::verify(g2);
  EXPECT_TRUE(live.clean());
  EXPECT_TRUE(parsed.clean());
  EXPECT_EQ(parsed.checked_ops, live.checked_ops);
  EXPECT_EQ(parsed.safe_ops, live.safe_ops);
  EXPECT_EQ(parsed.unknown_ops, live.unknown_ops);
  EXPECT_EQ(parsed.hazard_ops, live.hazard_ops);
}

TEST(AnalysisMachineTest, VerifierReplaysEveryHazardClass) {
  // No class is trusted from the recording: a tampered verdict in any one
  // class of a checked op is reported as a mismatch.
  VectorMachine m(analyzed());
  m.analyzer()->set_record_graph(true);
  WordVec table(16, 0);
  const WordVec idx = m.iota(16);
  m.scatter(table, idx, m.iota(16, 100));
  EXPECT_EQ(m.gather(table, idx).size(), 16u);
  const OpGraph& recorded = m.analyzer()->graph();
  ASSERT_TRUE(analysis::verify(recorded).clean());

  for (std::size_t c = 0; c < analysis::kHazardClassCount; ++c) {
    const auto cls = static_cast<HazardClass>(c);
    for (std::size_t id = 0; id < recorded.nodes.size(); ++id) {
      const analysis::Opcode op = recorded.nodes[id].op;
      if (op != analysis::Opcode::kGather &&
          !analysis::opcode_scatter_class(op)) {
        continue;
      }
      OpGraph tampered = recorded;
      tampered.nodes[id].verdicts[cls] = Verdict::kUnknown;
      const analysis::ReplayResult r = analysis::verify(tampered);
      ASSERT_EQ(r.mismatches.size(), 1u)
          << analysis::hazard_class_name(cls) << " on node " << id;
      EXPECT_NE(r.mismatches[0].find(analysis::hazard_class_name(cls)),
                std::string::npos)
          << r.mismatches[0];
    }
  }
}

TEST(AnalysisMachineTest, MalformedGraphJsonIsRejected) {
  EXPECT_THROW(OpGraph::from_json("not json"), PreconditionError);
  EXPECT_THROW(OpGraph::from_json("{\"schema\": \"something-else\"}"),
               PreconditionError);
}

// ---- seeded verdicts, one ProvenHazard and one Unknown per class ------------

TEST(AnalysisSeededTest, BoundsHazardIsVetoedInDryMode) {
  VectorMachine m(analyzed());
  m.analyzer()->set_veto(true);
  WordVec table(10, -1);
  const WordVec idx = m.iota(5, 7);  // [7, 11] tight: lanes 3, 4 escape
  m.scatter(table, idx, m.splat(5, 1));
  EXPECT_EQ(table, WordVec(10, -1));  // vetoed: never executed
  const WordVec out = m.gather(table, idx);
  EXPECT_EQ(out, WordVec(5, 0));  // vetoed gather reads as zeros

  const Analyzer::Stats& st = m.analyzer()->stats();
  EXPECT_EQ(st.vetoed, 2u);
  EXPECT_GE(verdicts_of(st, HazardClass::kBounds, Verdict::kProvenHazard), 2u);
  ASSERT_FALSE(m.analyzer()->diagnostics().empty());
  EXPECT_EQ(m.analyzer()->diagnostics()[0].cls, HazardClass::kBounds);
}

TEST(AnalysisSeededTest, BoundsUnknownForHostIndices) {
  VectorMachine m(analyzed());
  WordVec table(10, 0);
  WordVec host_idx{1, 4, 2};  // in bounds, but the analyzer has no facts
  m.scatter(table, host_idx, m.splat(3, 5));
  const Analyzer::Stats& st = m.analyzer()->stats();
  EXPECT_GE(verdicts_of(st, HazardClass::kBounds, Verdict::kUnknown), 1u);
  EXPECT_EQ(st.mem_hazard, 0u);
  EXPECT_TRUE(m.hazards().empty());
}

TEST(AnalysisSeededTest, OverlapHazardProvenInsideSanctioningWindow) {
  VectorMachine m(analyzed());
  WordVec table(8, 0);
  {
    // The data-race window silences the runtime auditor; the pigeonhole
    // proof (3 lanes, 1 address, distinct values) still convicts the op.
    const ConflictWindow w(m, table, WindowKind::kDataRace, "test race");
    m.scatter(table, m.splat(3, 2), m.iota(3, 10));
  }
  EXPECT_TRUE(m.hazards().empty());  // runtime stays silent by design
  const Analyzer::Stats& st = m.analyzer()->stats();
  EXPECT_GE(verdicts_of(st, HazardClass::kOverlap, Verdict::kProvenHazard),
            1u);
}

TEST(AnalysisSeededTest, OverlapUnknownForHostIndices) {
  VectorMachine m(analyzed());
  WordVec table(8, 0);
  {
    const ConflictWindow w(m, table, WindowKind::kDataRace, "test race");
    WordVec host_idx{2, 2, 5};
    m.scatter(table, host_idx, m.iota(3, 10));
  }
  const Analyzer::Stats& st = m.analyzer()->stats();
  EXPECT_GE(verdicts_of(st, HazardClass::kOverlap, Verdict::kUnknown), 1u);
}

TEST(AnalysisSeededTest, ClobberHazardOnStaleLabelReadback) {
  VectorMachine m(analyzed(/*elide=*/true, /*audit_throw=*/false));
  WordVec work(10, 0);
  const WordVec keys = m.iota(10);
  fol::fol1_decompose(m, keys, work);
  // The closed round left labels in work; a tight in-bounds readback of
  // them is the use-after-round hazard, proven statically and caught by
  // the runtime auditor alike.
  m.gather(work, m.iota(4));
  const Analyzer::Stats& st = m.analyzer()->stats();
  EXPECT_GE(verdicts_of(st, HazardClass::kClobber, Verdict::kProvenHazard),
            1u);
  EXPECT_GE(m.hazards().count(HazardKind::kClobberedWorkRead), 1u);
}

TEST(AnalysisSeededTest, ClobberUnknownWithoutIndexFacts) {
  VectorMachine m(analyzed(/*elide=*/true, /*audit_throw=*/false));
  WordVec work(10, 0);
  const WordVec keys = m.iota(10);
  fol::fol1_decompose(m, keys, work);
  WordVec host_idx{0};  // no facts: footprint could touch any stale span
  m.gather(work, host_idx);
  const Analyzer::Stats& st = m.analyzer()->stats();
  EXPECT_GE(verdicts_of(st, HazardClass::kClobber, Verdict::kUnknown), 1u);

  // retire_work declares the labels dead: the same read is then proven safe.
  m.retire_work(work);
  m.clear_hazards();
  m.gather(work, m.iota(4));
  EXPECT_EQ(m.hazards().count(HazardKind::kClobberedWorkRead), 0u);
}

// ---- audit elision ----------------------------------------------------------

TEST(AnalysisElisionTest, ElisionPreservesOutputsAndSkipsLaneWork) {
  const auto run = [](bool elide) {
    VectorMachine m(analyzed(elide));
    WordVec table(64, 0);
    for (int round = 0; round < 4; ++round) {
      const WordVec idx = m.iota(64);
      const WordVec vals = m.iota(64, round * 1000);
      m.scatter(table, idx, vals);
    }
    const WordVec out = m.gather(table, m.iota(64));
    const Analyzer::Stats st = m.analyzer()->stats();
    EXPECT_TRUE(m.hazards().empty());
    return std::make_pair(out, st);
  };
  const auto [full_out, full_st] = run(false);
  const auto [elided_out, elided_st] = run(true);
  EXPECT_EQ(elided_out, full_out);
  EXPECT_EQ(full_st.elided_instructions, 0u);
  EXPECT_GE(full_st.checked_instructions, 4u);
  EXPECT_GE(elided_st.elided_instructions, 4u);
  EXPECT_GE(elided_st.elided_lanes, 4u * 64u);
}

TEST(AnalysisElisionTest, ClobberDetectionSurvivesElidedRounds) {
  // The elided FOL round books its write footprint as an interval instead
  // of per-address marks; the stale-label read must still be caught.
  VectorMachine m(analyzed(/*elide=*/true, /*audit_throw=*/false));
  WordVec work(16, 0);
  fol::fol1_decompose(m, m.iota(16), work);
  EXPECT_GE(m.analyzer()->stats().elided_instructions, 1u);
  m.gather(work, m.iota(4));
  EXPECT_GE(m.hazards().count(HazardKind::kClobberedWorkRead), 1u);
}

TEST(AnalysisElisionTest, RepeatedFol1OnOneMachineStaysHazardFree) {
  // The round loops' working vectors are fresh locals on every call; a
  // second decomposition over the same work area must audit clean and
  // reproduce the first.
  VectorMachine m(analyzed());
  WordVec work(8, 0);
  const WordVec keys{5, 1, 5, 7, 0, 1, 5, 2, 7, 7, 3, 5};
  const fol::Decomposition first = fol::fol1_decompose(m, keys, work);
  m.retire_work(work);
  const fol::Decomposition second = fol::fol1_decompose(m, keys, work);
  m.retire_work(work);
  EXPECT_EQ(second.sets, first.sets);
  EXPECT_TRUE(m.hazards().empty());
  EXPECT_EQ(m.analyzer()->stats().mem_hazard, 0u);
}

TEST(AnalysisElisionTest, Fol1DistinctKeysProveMostScatterOps) {
  VectorMachine m(analyzed());
  WordVec work(4096, 0);
  const WordVec keys = m.iota(4096);
  fol::fol1_decompose(m, keys, work);
  m.retire_work(work);
  const Analyzer::Stats& st = m.analyzer()->stats();
  ASSERT_GT(st.scatter_ops, 0u);
  // The acceptance bar: >= 80% of scatter-class ops proven safe on the
  // distinct-key FOL1 workload.
  EXPECT_GE(st.scatter_safe * 10, st.scatter_ops * 8)
      << st.scatter_safe << " of " << st.scatter_ops << " proven safe";
  EXPECT_GE(st.elided_instructions, 1u);
}

// ---- soundness differential fuzz -------------------------------------------
//
// Across every scatter order x backend x fuse combination, run a seeded
// hazard-free workload twice — full auditing vs audit elision — with
// audit_throw on. The contract under test: an op the analyzer proves safe
// never trips a runtime ScatterCheck hazard (no AuditError, no recorded
// hazards), and eliding its per-lane audit work changes no output.

struct FuzzOutcome {
  WordVec table;
  std::vector<std::size_t> decomposition;
  std::uint64_t elided = 0;
  std::uint64_t safe = 0;
  std::uint64_t mem_ops = 0;
};

FuzzOutcome run_fuzz_workload(const MachineConfig& cfg, std::uint64_t seed) {
  VectorMachine m(cfg);
  Xoshiro256 rng(seed);
  const std::size_t n = 256;
  FuzzOutcome out;
  out.table.assign(n, 0);

  for (int round = 0; round < 6; ++round) {
    // Machine-derived distinct indices: proven safe, eligible for elision.
    const WordVec idx = m.iota(n);
    const WordVec vals =
        m.add_scalar(idx, static_cast<Word>(rng.next() % 1000));
    m.scatter(out.table, idx, vals);
    // Host-built in-bounds indices: unknown facts, audited in full.
    WordVec host_idx(n / 4);
    for (Word& x : host_idx) x = static_cast<Word>(rng.next() % n);
    m.scatter_ordered(out.table, host_idx,
                      m.splat(host_idx.size(), round));
    const WordVec back = m.gather(out.table, idx);
    EXPECT_EQ(back.size(), n);
  }

  // A FOL1 round with duplicate keys: sanctioned label-round collisions,
  // scatter_gather_eq readbacks, retire_work at the end.
  WordVec keys(n);
  for (Word& k : keys) k = static_cast<Word>(rng.next() % (n / 2));
  WordVec work(n, 0);
  const fol::Decomposition dec = fol::fol1_decompose(m, keys, work);
  for (const std::span<const std::size_t> set : dec.sets) {
    out.decomposition.insert(out.decomposition.end(), set.begin(), set.end());
  }
  m.retire_work(work);

  EXPECT_TRUE(m.hazards().empty());
  const Analyzer::Stats& st = m.analyzer()->stats();
  EXPECT_EQ(st.mem_hazard, 0u);  // the workload is hazard-free
  out.elided = st.elided_instructions;
  out.safe = st.mem_safe;
  out.mem_ops = st.mem_ops;
  return out;
}

TEST(AnalysisSoundnessFuzz, ProvenSafeNeverTripsRuntimeAcrossConfigs) {
  const ScatterOrder orders[] = {ScatterOrder::kForward,
                                 ScatterOrder::kReverse,
                                 ScatterOrder::kShuffled};
  // The scalar table and the widest table the host supports.
  const BackendKind backends[] = {BackendKind::kSerial, BackendKind::kSimd};
  std::uint64_t seed = 0xf01dab1eULL;
  for (const ScatterOrder order : orders) {
    for (const BackendKind backend : backends) {
      for (const bool fuse : {true, false}) {
        MachineConfig cfg = analyzed(/*elide=*/true);
        cfg.scatter_order = order;
        cfg.backend = backend;
        cfg.simd_level = SimdLevel::kAuto;
        cfg.fuse = fuse;
        ++seed;
        SCOPED_TRACE(testing::Message()
                     << "order=" << static_cast<int>(order)
                     << " backend=" << static_cast<int>(backend)
                     << " fuse=" << fuse);

        const FuzzOutcome elided = run_fuzz_workload(cfg, seed);
        EXPECT_GT(elided.elided, 0u);
        EXPECT_GT(elided.safe, 0u);

        MachineConfig full = cfg;
        full.audit_elide = false;
        const FuzzOutcome checked = run_fuzz_workload(full, seed);
        EXPECT_EQ(checked.elided, 0u);
        EXPECT_EQ(elided.table, checked.table);
        EXPECT_EQ(elided.decomposition, checked.decomposition);
        EXPECT_EQ(elided.mem_ops, checked.mem_ops);
      }
    }
  }
}

}  // namespace
}  // namespace folvec

// Instruction-stream tests through SpanTracer "op" events: every vector
// instruction the machine issues becomes one leaf event carrying its class
// mnemonic and vector length. Pins the exact instruction mix FOL1 issues
// for a duplicate-free input on every backend kind — a regression guard
// against accidental extra passes — and pins pay-for-use timing: an
// instruction is timed, once, only while a consumer of the time is installed.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fol/fol1.h"
#include "support/json.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"
#include "telemetry/spans.h"
#include "vm/machine.h"

namespace folvec::vm {
namespace {

using telemetry::ScopedTracer;
using telemetry::SpanTracer;

/// One recorded instruction: class mnemonic and vector length.
using OpEvent = std::pair<std::string, std::uint64_t>;

/// The tracer's "op" events in emission order; spans, chunks, flows and
/// counters are host-side decoration and are skipped.
std::vector<OpEvent> op_events(const SpanTracer& tracer) {
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue doc = JsonValue::parse(os.str());
  std::vector<OpEvent> out;
  for (const JsonValue& ev : doc.find("traceEvents")->as_array()) {
    const JsonValue* cat = ev.find("cat");
    if (cat == nullptr || cat->as_string() != "op") continue;
    out.emplace_back(
        ev.find("name")->as_string(),
        static_cast<std::uint64_t>(
            ev.find("args")->find("elements")->as_number()));
  }
  return out;
}

/// Per-mnemonic (instruction count, max length) over a run's op events.
struct ClassStats {
  std::size_t count = 0;
  std::uint64_t max_length = 0;
};

std::map<std::string, ClassStats> mix(const std::vector<OpEvent>& events) {
  std::map<std::string, ClassStats> out;
  for (const auto& [name, elements] : events) {
    ClassStats& s = out[name];
    ++s.count;
    if (elements > s.max_length) s.max_length = elements;
  }
  return out;
}

std::size_t count_of(const std::map<std::string, ClassStats>& m, OpClass c) {
  const auto it = m.find(op_class_name(c));
  return it == m.end() ? 0 : it->second.count;
}

std::uint64_t max_length_of(const std::map<std::string, ClassStats>& m,
                            OpClass c) {
  const auto it = m.find(op_class_name(c));
  return it == m.end() ? 0 : it->second.max_length;
}

bool is_scalar_class(OpClass c) {
  return c == OpClass::kScalarAlu || c == OpClass::kScalarMem ||
         c == OpClass::kScalarBranch || c == OpClass::kScalarDiv;
}

TEST(MachineOpTraceTest, NoEventsWithoutInstalledTracer) {
  VectorMachine m;
  m.iota(4);  // must not crash without a tracer
  SpanTracer tracer;
  {
    const ScopedTracer scoped(tracer);
    m.iota(5);
  }
  m.iota(3);  // uninstalled: no further events
  EXPECT_EQ(op_events(tracer), (std::vector<OpEvent>{{"v.arith", 5}}));
}

TEST(MachineOpTraceTest, OpEventsFollowIssueOrderWithLengths) {
  VectorMachine m;
  SpanTracer tracer;
  {
    const ScopedTracer scoped(tracer);
    const WordVec a = m.iota(8);
    const WordVec b = m.add_scalar(a, 1);
    const Mask eq = m.eq(a, b);
    m.compress(a, eq);
  }
  EXPECT_EQ(op_events(tracer),
            (std::vector<OpEvent>{{"v.arith", 8},
                                  {"v.arith", 8},
                                  {"v.cmp", 8},
                                  {"v.compress", 8}}));
}

TEST(MachineOpTraceTest, ScalarUnitTicksAreChimeOnly) {
  // The scalar unit's cost ticks feed the chime model but execute no host
  // lane loop, so they add instructions to the accumulator and no op event.
  VectorMachine m;
  SpanTracer tracer;
  {
    const ScopedTracer scoped(tracer);
    m.scalar_alu(3);
    m.scalar_mem(2);
    m.scalar_branch();
    m.scalar_div();
  }
  EXPECT_TRUE(op_events(tracer).empty());
  EXPECT_EQ(m.cost().instructions(OpClass::kScalarMem), 1u);
  EXPECT_EQ(m.cost().elements(OpClass::kScalarMem), 2u);
  EXPECT_EQ(m.cost().total_instructions(), 4u);
}

TEST(MachineOpTraceTest, OpEventsMatchCostAccumulatorPerVectorClass) {
  // Every vector instruction the chime model counts is one op event of the
  // same class and length — duplicated FOL1 rounds and an elementwise chain
  // included.
  MachineConfig cfg;
  cfg.audit = false;
  VectorMachine m(cfg);
  SpanTracer tracer;
  {
    const ScopedTracer scoped(tracer);
    const WordVec v{3, 1, 3, 0, 2, 1, 3, 4};
    WordVec work(5, 0);
    folvec::fol::fol1_decompose(m, v, work);
    const WordVec a = m.iota(16);
    WordVec r1;
    WordVec r2;
    m.add_into(r1, a, a);
    m.add_scalar_into(r2, r1, 5);
    m.mod_scalar_into(r1, r2, 7);
    m.gather(r1, m.iota(4, 2));
  }
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const auto& [name, elements] : op_events(tracer)) {
    auto& [instructions, total] = seen[name];
    ++instructions;
    total += elements;
  }
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    const auto c = static_cast<OpClass>(i);
    if (is_scalar_class(c)) continue;
    const auto it = seen.find(op_class_name(c));
    const auto [instructions, elements] =
        it == seen.end() ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
                         : it->second;
    EXPECT_EQ(instructions, m.cost().instructions(c)) << op_class_name(c);
    EXPECT_EQ(elements, m.cost().elements(c)) << op_class_name(c);
  }
  EXPECT_GT(m.cost().instructions(OpClass::kVectorGather), 0u);
}

/// A run issuing every vector op class: FOL1 over duplicates plus the
/// remaining primitive families, each class at least twice, on vectors long
/// enough that every timed instruction spans a measurable interval.
void every_class_workload(VectorMachine& m) {
  const WordVec v{3, 1, 3, 0, 2, 1, 3, 4};
  WordVec work(5, 0);
  folvec::fol::fol1_decompose(m, v, work);
  constexpr std::size_t kLanes = 4096;
  WordVec table(kLanes, 0);
  for (int rep = 0; rep < 2; ++rep) {
    const WordVec a = m.iota(kLanes);
    const WordVec q = m.div_scalar(a, 3);
    const Mask odd = m.ne_scalar(m.and_scalar(a, 1), 0);
    const Mask low_odd = m.mask_and(odd, m.lt_scalar(a, 1000));
    m.store(table, 0, a);
    const WordVec l = m.load(table, 0, kLanes / 2);
    m.scatter(table, q, a);
    m.scatter_ordered(table, q, a);
    m.gather(table, q);
    m.compress(a, low_odd);
    m.partition(a, low_odd);
    m.scatter_gather_eq(table, q, a);
    m.reduce_sum(l);
  }
}

TEST(MachineOpTimingTest, NoConsumerInstalledReadsNoClock) {
  MachineConfig cfg;
  cfg.audit = false;
  {
    // Nothing installed: nothing reads the time, so no clock is read and
    // the wall ledger stays empty.
    ASSERT_EQ(telemetry::metrics(), nullptr);
    ASSERT_EQ(telemetry::tracer(), nullptr);
    ASSERT_EQ(telemetry::profiler(), nullptr);
    VectorMachine m(cfg);
    every_class_workload(m);
    EXPECT_GT(m.cost().total_instructions(), 0u);
    EXPECT_EQ(m.cost().total_wall_seconds(), 0.0);
    // Nothing was deferred either: a tracer installed afterwards sees only
    // the instructions issued while it is installed.
    SpanTracer tracer;
    {
      const ScopedTracer scoped(tracer);
      m.iota(4);
    }
    EXPECT_EQ(op_events(tracer), (std::vector<OpEvent>{{"v.arith", 4}}));
  }
}

TEST(MachineOpTimingTest, MetricsConsumerTimesEveryVectorClass) {
  MachineConfig cfg;
  cfg.audit = false;
  {
    telemetry::MetricsRegistry registry;
    const telemetry::ScopedMetrics scoped(registry);
    VectorMachine m(cfg);
    every_class_workload(m);
    for (std::size_t i = 0; i < kOpClassCount; ++i) {
      const auto c = static_cast<OpClass>(i);
      if (is_scalar_class(c) || m.cost().instructions(c) == 0) continue;
      EXPECT_GT(m.cost().wall_seconds(c), 0.0) << op_class_name(c);
    }
  }
}

TEST(MachineOpTimingTest, ProfilerTakesOneSamplePerInstruction) {
  MachineConfig cfg;
  cfg.audit = false;
  {
    // One timing site per instruction: each vector class contributes
    // exactly one calibration sample per instruction; scalar-unit ticks run
    // no lane loop and are never timed.
    telemetry::Profiler profiler;
    const telemetry::ScopedProfiler scoped(profiler);
    VectorMachine m(cfg);
    every_class_workload(m);
    const auto series = profiler.snapshot();
    for (std::size_t i = 0; i < kOpClassCount; ++i) {
      const auto c = static_cast<OpClass>(i);
      const auto it = series.find(op_class_name(c));
      const std::uint64_t samples = it == series.end() ? 0 : it->second.samples;
      EXPECT_EQ(samples, is_scalar_class(c) ? 0 : m.cost().instructions(c))
          << op_class_name(c);
    }
  }
}

class Fol1InstructionMixTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  /// Op-event mix of one FOL1 decomposition of a duplicate-free vector.
  std::map<std::string, ClassStats> run(bool fuse) const {
    MachineConfig cfg;
    cfg.audit = false;
    cfg.fuse = fuse;
    cfg.backend = GetParam();
    VectorMachine m(cfg);
    SpanTracer tracer;
    {
      const ScopedTracer scoped(tracer);
      const WordVec v{3, 1, 4, 0, 2};
      WordVec work(5, 0);
      folvec::fol::fol1_decompose(m, v, work);
    }
    return mix(op_events(tracer));
  }
};

TEST_P(Fol1InstructionMixTest, DuplicateFreeFused) {
  // A duplicate-free fused FOL1 run is one round: copy + iota +
  // scatter_gather_eq + count + 2 partition (positions and indices).
  // Fusion is forced on so the mix doesn't depend on the config default.
  const auto t = run(/*fuse=*/true);
  EXPECT_EQ(count_of(t, OpClass::kVectorScatterGatherEq), 1u);
  EXPECT_EQ(count_of(t, OpClass::kVectorReduce), 1u);
  EXPECT_EQ(count_of(t, OpClass::kVectorPartition), 2u);
  EXPECT_EQ(count_of(t, OpClass::kVectorScatter), 0u);
  EXPECT_EQ(count_of(t, OpClass::kVectorGather), 0u);
  EXPECT_EQ(count_of(t, OpClass::kVectorCompare), 0u);
  EXPECT_EQ(count_of(t, OpClass::kVectorCompress), 0u);
  EXPECT_EQ(max_length_of(t, OpClass::kVectorScatterGatherEq), 5u);
}

TEST_P(Fol1InstructionMixTest, DuplicateFreeUnfused) {
  // With fusion off the same run decomposes into the reference chain:
  // scatter + gather + compare + count, then each partition becomes
  // compress + mask_not + compress.
  const auto t = run(/*fuse=*/false);
  EXPECT_EQ(count_of(t, OpClass::kVectorScatterGatherEq), 0u);
  EXPECT_EQ(count_of(t, OpClass::kVectorPartition), 0u);
  EXPECT_EQ(count_of(t, OpClass::kVectorScatter), 1u);
  EXPECT_EQ(count_of(t, OpClass::kVectorGather), 1u);
  EXPECT_EQ(count_of(t, OpClass::kVectorCompare), 1u);
  EXPECT_EQ(count_of(t, OpClass::kVectorCompress), 4u);
  EXPECT_EQ(max_length_of(t, OpClass::kVectorScatter), 5u);
}

std::string kind_name(const ::testing::TestParamInfo<BackendKind>& p) {
  switch (p.param) {
    case BackendKind::kSerial: return "serial";
    case BackendKind::kSimd: return "simd";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(
    BackendKinds, Fol1InstructionMixTest,
    ::testing::Values(BackendKind::kSerial, BackendKind::kSimd),
    kind_name);

}  // namespace
}  // namespace folvec::vm

// Differential fuzz of the backend kinds: every kernel table must be
// bit-identical to the serial machine (the scalar reference table) for
// every primitive, under every ScatterOrder and fuse mode — same outputs,
// same memory images, same chime costs, same exceptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "fol/fol1.h"
#include "hashing/open_table.h"
#include "support/json.h"
#include "support/prng.h"
#include "telemetry/metrics.h"
#include "telemetry/spans.h"
#include "vm/checker.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {
namespace {

MachineConfig diff_config(ScatterOrder order, std::uint64_t seed) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = seed;
  // The fuzz scatters duplicate addresses outside ConflictWindows on
  // purpose; opt out of auditing regardless of the FOLVEC_AUDIT env.
  cfg.audit = false;
  return cfg;
}

VectorMachine make_serial(ScatterOrder order, std::uint64_t seed) {
  MachineConfig cfg = diff_config(order, seed);
  cfg.backend = BackendKind::kSerial;
  return VectorMachine(cfg);
}

VectorMachine make_simd(ScatterOrder order, std::uint64_t seed,
                        SimdLevel level) {
  MachineConfig cfg = diff_config(order, seed);
  cfg.backend = BackendKind::kSimd;
  cfg.simd_level = level;
  return VectorMachine(cfg);
}

/// Points `cfg` at one kernel table of the matrices below: kScalar is the
/// serial machine (the scalar reference table), any other level the kSimd
/// machine forced to that level's table.
void use_table(MachineConfig& cfg, SimdLevel table) {
  cfg.backend =
      table == SimdLevel::kScalar ? BackendKind::kSerial : BackendKind::kSimd;
  cfg.simd_level = table;
}

/// One machine of the kernel table x fuse matrix.
VectorMachine make_table(ScatterOrder order, std::uint64_t seed,
                         SimdLevel table, bool fuse) {
  MachineConfig cfg = diff_config(order, seed);
  use_table(cfg, table);
  cfg.fuse = fuse;
  return VectorMachine(cfg);
}

void expect_same_costs(const CostAccumulator& serial,
                       const CostAccumulator& other) {
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    const auto c = static_cast<OpClass>(i);
    EXPECT_EQ(serial.instructions(c), other.instructions(c))
        << "instruction count diverged for " << op_class_name(c);
    EXPECT_EQ(serial.elements(c), other.elements(c))
        << "element count diverged for " << op_class_name(c);
  }
}

constexpr const char* kOrderNames[] = {"Forward", "Reverse", "Shuffled"};

/// (ScatterOrder, kernel table, flag) — the matrix BackendDiffTest and
/// MergeScalingDiffTest rerun over with flag = fuse, and FusedDiffTest with
/// flag = audit. The table axis is every table the build can compile, not
/// just the widest one this host picks: an AVX2-only host runs the AVX2
/// table, so it gets the full matrix on an AVX-512 host too.
using TableParam = std::tuple<ScatterOrder, SimdLevel, bool>;

const auto kOrders = ::testing::Values(
    ScatterOrder::kForward, ScatterOrder::kReverse, ScatterOrder::kShuffled);
const auto kTables = ::testing::Values(SimdLevel::kScalar, SimdLevel::kNeon,
                                       SimdLevel::kAvx2, SimdLevel::kAvx512);

std::string table_name(SimdLevel table) {
  std::string name = simd_level_name(table);
  name[0] = static_cast<char>(std::toupper(name[0]));
  return name + "Table";
}

std::string table_param_name(
    const ::testing::TestParamInfo<TableParam>& info) {
  return std::string(
             kOrderNames[static_cast<std::size_t>(std::get<0>(info.param))]) +
         "x" + table_name(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "xFused" : "xUnfused");
}

const auto kTableParams =
    ::testing::Combine(kOrders, kTables, ::testing::Bool());

/// Fixture base of the table matrices; a table the host or the build
/// cannot run is skipped.
class TableMatrixTest : public ::testing::TestWithParam<TableParam> {
 protected:
  void SetUp() override {
    if (!simd_level_supported(table())) {
      GTEST_SKIP() << simd_level_name(table())
                   << " is not available on this host/build";
    }
  }
  ScatterOrder order() const { return std::get<0>(GetParam()); }
  SimdLevel table() const { return std::get<1>(GetParam()); }
};

/// Shared random operands for one script run at size n.
struct Inputs {
  WordVec a, b, table, idx, vals;
  Mask mask;

  Inputs(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const std::size_t table_size = std::max<std::size_t>(1, n / 2);
    a.resize(n);
    b.resize(n);
    idx.resize(n);
    vals.resize(n);
    mask.resize(n);
    table.resize(table_size);
    for (auto& x : a) x = rng.in_range(-1000000, 1000000);
    for (auto& x : b) x = rng.in_range(-1000000, 1000000);
    for (auto& x : table) x = rng.in_range(-1000000, 1000000);
    // Heavy collisions: ~n lanes over n/2 addresses.
    for (auto& x : idx) {
      x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    }
    for (auto& x : vals) x = rng.in_range(-1000000, 1000000);
    for (auto& x : mask) x = static_cast<std::uint8_t>(rng.below(3) != 0);
  }
};

/// Runs every primitive once on `m` and returns a flat digest of all
/// results plus the final memory image.
WordVec run_script(VectorMachine& m, const Inputs& in) {
  const std::size_t n = in.a.size();
  WordVec digest;
  const auto emit = [&digest](const WordVec& v) {
    digest.insert(digest.end(), v.begin(), v.end());
  };
  const auto emit_mask = [&digest](const Mask& v) {
    for (auto b : v) digest.push_back(b);
  };

  emit(m.iota(n, -5, 3));
  emit(m.splat(n, 42));
  emit(m.copy(in.a));
  emit(m.reverse(in.a));
  emit(m.add(in.a, in.b));
  emit(m.sub(in.a, in.b));
  emit(m.mul(in.a, in.b));
  emit(m.add_scalar(in.a, 17));
  emit(m.mul_scalar(in.a, -3));
  emit(m.div_scalar(in.a, 7));
  emit(m.mod_scalar(in.a, 7));
  emit(m.and_scalar(in.a, 0xff));
  emit(m.or_scalar(in.a, 0x10));
  emit(m.shr_scalar(in.a, 2));
  emit(m.negate(in.a));
  emit_mask(m.eq(in.a, in.b));
  emit_mask(m.ne(in.a, in.b));
  emit_mask(m.le(in.a, in.b));
  emit_mask(m.lt(in.a, in.b));
  emit_mask(m.eq_scalar(in.a, 0));
  emit_mask(m.ne_scalar(in.a, 0));
  emit_mask(m.le_scalar(in.a, 100));
  emit_mask(m.lt_scalar(in.a, 100));
  emit_mask(m.ge_scalar(in.a, 100));
  const Mask lt_mask = m.lt(in.a, in.b);
  emit_mask(m.mask_and(lt_mask, in.mask));
  emit_mask(m.mask_or(lt_mask, in.mask));
  emit_mask(m.mask_not(in.mask));
  digest.push_back(static_cast<Word>(m.count_true(in.mask)));
  digest.push_back(m.reduce_sum(in.a));
  if (n > 0) {
    digest.push_back(m.reduce_min(in.a));
    digest.push_back(m.reduce_max(in.a));
  }
  emit(m.compress(in.a, in.mask));
  emit(m.select(in.mask, in.a, in.b));
  emit(m.from_mask(in.mask));

  WordVec mem(in.table.begin(), in.table.end());
  const std::size_t head = std::min(mem.size(), in.vals.size());
  m.store(mem, 0,
          WordVec(in.vals.begin(),
                  in.vals.begin() + static_cast<std::ptrdiff_t>(head)));
  emit(m.load(mem, 0, mem.size()));
  if (!mem.empty()) {
    const std::size_t strided_n = (mem.size() + 1) / 2;
    emit(m.load_strided(mem, 0, 2, strided_n));
    m.store_strided(mem, 0, 2, in.a.empty()
                                   ? WordVec{}
                                   : WordVec(in.a.begin(),
                                             in.a.begin() +
                                                 static_cast<std::ptrdiff_t>(
                                                     strided_n)));
  }
  m.fill(mem, -7);
  emit(mem);

  emit(m.gather(in.table, in.idx));
  emit(m.gather_masked(in.table, in.idx, in.mask, -99));

  // Three consecutive ELS scatters: under kShuffled each draws a fresh
  // permutation from the machine RNG, so this also checks that the RNG
  // stream is consumed identically on both backends.
  WordVec target(in.table.begin(), in.table.end());
  m.scatter(target, in.idx, in.vals);
  emit(target);
  m.scatter(target, in.idx, in.a);
  emit(target);
  m.scatter_masked(target, in.idx, in.vals, in.mask);
  emit(target);
  m.scatter_ordered(target, in.idx, in.b);
  emit(target);
  return digest;
}

class BackendDiffTest : public TableMatrixTest {
 protected:
  bool fuse() const { return std::get<2>(GetParam()); }
  VectorMachine serial(std::uint64_t seed) const {
    return make_table(order(), seed, SimdLevel::kScalar, fuse());
  }
  VectorMachine other(std::uint64_t seed) const {
    return make_table(order(), seed, table(), fuse());
  }
};

TEST_P(BackendDiffTest, EveryPrimitiveBitIdenticalWithIdenticalChimes) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{257}, std::size_t{1000}, std::size_t{4099}}) {
    const Inputs in(n, 0xfeed0000 + n);
    VectorMachine want_m = serial(99);
    VectorMachine got_m = other(99);
    ASSERT_STREQ(got_m.backend_name(),
                 table() == SimdLevel::kScalar ? "serial" : "simd");
    ASSERT_EQ(got_m.active_simd_level(), table());
    const WordVec want = run_script(want_m, in);
    const WordVec got = run_script(got_m, in);
    ASSERT_EQ(want, got) << "digest diverged at n=" << n;
    expect_same_costs(want_m.cost(), got_m.cost());
  }
}

TEST_P(BackendDiffTest, ScatterSurvivorLaneExactUnderHeavyCollisions) {
  Xoshiro256 rng(0xc0113c7);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 600));
    // Between 1 and n distinct addresses: the low end makes nearly every
    // lane collide, the survivor rule's worst case.
    const auto table_size = static_cast<std::size_t>(
        rng.in_range(1, static_cast<Word>(n)));
    WordVec table_s(table_size, 0);
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) {
      x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    }
    for (auto& x : vals) x = rng.in_range(-1 << 20, 1 << 20);
    WordVec table_o = table_s;
    const auto seed = static_cast<std::uint64_t>(round) * 7919 + 1;
    VectorMachine want_m = serial(seed);
    VectorMachine got_m = other(seed);
    want_m.scatter(table_s, idx, vals);
    got_m.scatter(table_o, idx, vals);
    ASSERT_EQ(table_s, table_o)
        << "scatter survivor diverged: n=" << n << " areas=" << table_size;
  }
}

TEST_P(BackendDiffTest, ExceptionParityWithSerial) {
  VectorMachine want_m = serial(5);
  VectorMachine got_m = other(5);
  // A negative element deep inside the vector: both machines throw the
  // same exception type.
  WordVec v(300, 1);
  v[257] = -4;
  EXPECT_THROW(want_m.shl_scalar(v, 1), PreconditionError);
  EXPECT_THROW(got_m.shl_scalar(v, 1), PreconditionError);
  // Out-of-bounds lane in the middle of a gather/scatter.
  WordVec table(16, 0);
  WordVec idx(300, 3);
  idx[170] = 99;
  EXPECT_THROW(want_m.gather(table, idx), PreconditionError);
  EXPECT_THROW(got_m.gather(table, idx), PreconditionError);
  const WordVec vals(300, 1);
  EXPECT_THROW(want_m.scatter(table, idx, vals), PreconditionError);
  EXPECT_THROW(got_m.scatter(table, idx, vals), PreconditionError);
  // Inactive out-of-bounds lanes are legal on both.
  Mask mask(300, 1);
  mask[170] = 0;
  WordVec table_s = table;
  WordVec table_o = table;
  want_m.scatter_masked(table_s, idx, vals, mask);
  got_m.scatter_masked(table_o, idx, vals, mask);
  EXPECT_EQ(table_s, table_o);
}

INSTANTIATE_TEST_SUITE_P(AllOrdersTablesFuseModes, BackendDiffTest,
                         kTableParams, table_param_name);

TEST(BackendDiffLargeTest, LargeVectorsOnTheWidestTable) {
  const std::size_t n = 200000;
  const Inputs in(n, 0xabcde);
  VectorMachine serial = make_serial(ScatterOrder::kShuffled, 7);
  VectorMachine simd = make_simd(ScatterOrder::kShuffled, 7, SimdLevel::kAuto);
  const WordVec want = run_script(serial, in);
  const WordVec got = run_script(simd, in);
  ASSERT_EQ(want, got);
  expect_same_costs(serial.cost(), simd.cost());
}

// perfbench still configures the retired kParallelSimd kind with one
// worker; that spelling must run exactly the kSimd machine.
TEST(RetiredKindTest, PerfbenchShapedConfigRunsTheSimdMachine) {
  static_assert(BackendKind::kParallelSimd == BackendKind::kSimd);
  static_assert(BackendKind::kParallel == BackendKind::kSerial);
  for (const ScatterOrder order :
       {ScatterOrder::kForward, ScatterOrder::kReverse,
        ScatterOrder::kShuffled}) {
    const Inputs in(1000, 0x9e7f0000 + static_cast<std::uint64_t>(order));
    MachineConfig simd_cfg = diff_config(order, 99);
    simd_cfg.backend = BackendKind::kSimd;
    simd_cfg.simd_level = SimdLevel::kAuto;
    MachineConfig perf_cfg = simd_cfg;
    perf_cfg.backend = BackendKind::kParallelSimd;
    perf_cfg.backend_threads = 1;
    VectorMachine simd(simd_cfg);
    VectorMachine perf(perf_cfg);
    EXPECT_STREQ(perf.backend_name(), "simd");
    EXPECT_EQ(perf.backend_workers(), 1u);
    EXPECT_EQ(perf.active_simd_level(), simd.active_simd_level());
    const WordVec want = run_script(simd, in);
    const WordVec got = run_script(perf, in);
    ASSERT_EQ(want, got) << "order=" << static_cast<int>(order);
    expect_same_costs(simd.cost(), perf.cost());
    EXPECT_EQ(perf.simd_dispatches(), simd.simd_dispatches());
  }
}

// ---- telemetry determinism across backends ---------------------------------
//
// The metrics contract (telemetry/metrics.h): everything outside the host
// namespaces carries modeled quantities and must be bit-identical for the
// same program on either backend, for every ScatterOrder and fuse mode.
// The span timeline likewise: the same spans, in the same order, with the
// same chime deltas — only the wall timestamps differ.

/// A telemetry-workload machine: the scalar or the widest table under one
/// (order, fuse) cell of the matrix.
struct TelemetryCell {
  ScatterOrder order;
  bool fuse;
};

VectorMachine make_telemetry_machine(BackendKind kind, TelemetryCell cell) {
  MachineConfig cfg = diff_config(cell.order, 0x7e1e);
  cfg.backend = kind;
  cfg.simd_level = SimdLevel::kAuto;
  cfg.fuse = cell.fuse;
  return VectorMachine(cfg);
}

std::vector<TelemetryCell> telemetry_cells() {
  std::vector<TelemetryCell> cells;
  for (const ScatterOrder order :
       {ScatterOrder::kForward, ScatterOrder::kReverse,
        ScatterOrder::kShuffled}) {
    for (const bool fuse : {true, false}) cells.push_back({order, fuse});
  }
  return cells;
}

/// A workload touching every instrumented layer: raw machine ops, FOL1
/// rounds with duplicates, and multiple hashing with retries.
void telemetry_workload(VectorMachine& m) {
  const WordVec targets = random_keys(1000, 100, 0x7e1e);
  WordVec work(100, 0);
  fol::fol1_decompose(m, targets, work);

  const WordVec keys = random_unique_keys(500, 1 << 20, 0x7e1f);
  WordVec table(1031, hashing::kUnentered);
  hashing::multi_hash_open_insert(m, table, keys,
                                  hashing::ProbeVariant::kKeyDependent);

  const WordVec a = m.iota(4096);
  m.reduce_sum(m.mul_scalar(a, 3));
}

telemetry::MetricsSnapshot run_with_metrics(BackendKind kind,
                                            TelemetryCell cell) {
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetrics scoped(registry);
  {
    // The machine flushes its per-op-class totals on destruction, so the
    // snapshot is taken after this scope closes.
    VectorMachine m = make_telemetry_machine(kind, cell);
    telemetry_workload(m);
  }
  return registry.snapshot();
}

/// The backend-invariant part of a trace: span and op event names,
/// categories, and chime payloads, in emission order — everything but the
/// wall clock. Host-side decoration (thread metadata, "counter" samples) is
/// excluded by construction: it describes the host, not what the program
/// computed.
std::string span_tree_signature(BackendKind kind, TelemetryCell cell) {
  telemetry::SpanTracer tracer;
  {
    const telemetry::ScopedTracer scoped(tracer);
    VectorMachine m = make_telemetry_machine(kind, cell);
    telemetry_workload(m);
  }
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue doc = JsonValue::parse(os.str());
  std::string sig;
  for (const JsonValue& ev : doc.find("traceEvents")->as_array()) {
    const JsonValue* cat = ev.find("cat");
    if (cat == nullptr ||
        (cat->as_string() != "span" && cat->as_string() != "op")) {
      continue;
    }
    sig += ev.find("name")->as_string();
    sig += '|';
    sig += cat->as_string();
    if (const JsonValue* args = ev.find("args")) {
      for (const char* key :
           {"elements", "chime_instructions", "chime_elements"}) {
        if (const JsonValue* v = args->find(key)) {
          sig += '|';
          sig += std::to_string(static_cast<std::uint64_t>(v->as_number()));
        }
      }
    }
    sig += '\n';
  }
  return sig;
}

TEST(TelemetryDeterminismTest, MetricsIdenticalAcrossBackends) {
  for (const TelemetryCell cell : telemetry_cells()) {
    SCOPED_TRACE(testing::Message() << "order=" << static_cast<int>(cell.order)
                                    << " fuse=" << cell.fuse);
    const telemetry::MetricsSnapshot serial =
        run_with_metrics(BackendKind::kSerial, cell).deterministic();
    ASSERT_FALSE(serial.counters.empty());
    ASSERT_FALSE(serial.histograms.empty());
    EXPECT_TRUE(serial.counters.contains("fol1.rounds"));
    EXPECT_TRUE(serial.counters.contains("hashing.retry_rounds"));
    const telemetry::MetricsSnapshot simd =
        run_with_metrics(BackendKind::kSimd, cell).deterministic();
    EXPECT_EQ(serial.to_text(), simd.to_text())
        << "deterministic metrics diverged on the widest table";
    EXPECT_TRUE(serial == simd);
  }
}

TEST(TelemetryDeterminismTest, FullSnapshotSeparatesHostOnlyNamespaces) {
  // The raw (non-deterministic view) simd snapshot is allowed to differ
  // from serial ONLY via timings, labels, and the backend. namespace.
  for (const TelemetryCell cell : telemetry_cells()) {
    const telemetry::MetricsSnapshot serial =
        run_with_metrics(BackendKind::kSerial, cell);
    const telemetry::MetricsSnapshot simd =
        run_with_metrics(BackendKind::kSimd, cell);
    EXPECT_EQ(simd.labels.at("backend.name"), "simd");
    EXPECT_EQ(serial.labels.at("backend.name"), "serial");
    for (const auto& [name, value] : simd.counters) {
      if (name.starts_with("backend.")) continue;
      ASSERT_TRUE(serial.counters.contains(name)) << name;
      EXPECT_EQ(serial.counters.at(name), value) << name;
    }
  }
}

TEST(TelemetryDeterminismTest, SpanTreesIdenticalAcrossBackends) {
  for (const TelemetryCell cell : telemetry_cells()) {
    SCOPED_TRACE(testing::Message() << "order=" << static_cast<int>(cell.order)
                                    << " fuse=" << cell.fuse);
    const std::string serial = span_tree_signature(BackendKind::kSerial, cell);
    ASSERT_FALSE(serial.empty());
    EXPECT_NE(serial.find("fol1.decompose|span"), std::string::npos);
    EXPECT_NE(serial.find("hashing.multi_insert|span"), std::string::npos);
    EXPECT_EQ(serial, span_tree_signature(BackendKind::kSimd, cell))
        << "span tree diverged on the widest table";
  }
}

// ---- fused vs unfused differential fuzz ------------------------------------
//
// The fused scatter_gather_eq / partition kernels are an optimization, not a
// semantics change: for every ScatterOrder, either kernel table, and audit
// on or off, a machine with config.fuse=true must produce bit-identical
// outputs and memory images to the same machine running the unfused
// reference composition (fuse=false). Chimes are NOT compared across fuse
// modes — charging fused ops less is the point — but they must be identical
// across tables and audit settings for a fixed fuse mode.

/// Machine whose fuse flag is forced rather than left at its default, on
/// one kernel table.
VectorMachine make_fused_machine(ScatterOrder order, SimdLevel table,
                                 bool audit, bool fuse) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = 4242;
  cfg.audit = audit;
  cfg.fuse = fuse;
  use_table(cfg, table);
  return VectorMachine(cfg);
}

/// Exercises the fused entry points plus their *_into variants and
/// one full FOL1 decomposition; returns a flat digest of every result and
/// final memory image. Scatters sit inside ConflictWindows so the script is
/// audit-clean.
WordVec run_fused_script(VectorMachine& m, const Inputs& in) {
  const std::size_t n = in.a.size();
  WordVec digest;
  const auto emit = [&digest](const WordVec& v) {
    digest.insert(digest.end(), v.begin(), v.end());
  };
  const auto emit_mask = [&digest](const Mask& v) {
    for (auto b : v) digest.push_back(b);
  };

  // Distinct per-lane values, so a lane's readback matches only its own
  // write (the overwrite-and-check precondition).
  const WordVec labels = m.iota(n, 1, 3);

  WordVec table(in.table.begin(), in.table.end());
  {
    const ConflictWindow window(m, table, WindowKind::kDataRace,
                                "fused fuzz sge");
    const Mask survived = m.scatter_gather_eq(table, in.idx, labels);
    digest.push_back(static_cast<Word>(m.count_true(survived)));
    emit_mask(survived);
  }
  emit(table);

  WordVec table_masked(in.table.begin(), in.table.end());
  {
    const ConflictWindow window(m, table_masked, WindowKind::kDataRace,
                                "fused fuzz sge_masked");
    const Mask survived =
        m.scatter_gather_eq_masked(table_masked, in.idx, labels, in.mask);
    digest.push_back(static_cast<Word>(m.count_true(survived)));
    emit_mask(survived);
  }
  emit(table_masked);

  const auto [kept, rejected] = m.partition(in.a, in.mask);
  emit(kept);
  emit(rejected);

  WordVec kept2;
  WordVec rejected2;
  digest.push_back(
      static_cast<Word>(m.partition_into(kept2, rejected2, in.b, in.mask)));
  emit(kept2);
  emit(rejected2);

  // Destination-passing round trip through one reused vector: each *_into
  // refills it in place, and a refill within its capacity keeps its storage.
  WordVec buf;
  m.gather_into(buf, in.table, in.idx);
  emit(buf);
  const Word* storage = buf.data();
  m.compress_into(buf, in.a, in.mask);
  emit(buf);
  m.add_scalar_into(kept2, buf, 11);
  emit(kept2);
  m.gather_into(buf, in.table, in.idx);
  EXPECT_EQ(buf.data(), storage) << "a refill within capacity reallocated";
  emit(buf);

  // Algorithm level: a duplicate-heavy FOL1 decomposition runs the fused
  // round loop end to end (or its unfused reference under fuse=false).
  if (n > 0) {
    WordVec work(in.table.size(), 0);
    WordVec fol_idx(in.idx.begin(), in.idx.end());
    const fol::Decomposition dec = fol::fol1_decompose(m, fol_idx, work);
    m.retire_work(work);
    digest.push_back(static_cast<Word>(dec.rounds()));
    for (const auto& set : dec.sets) {
      for (const std::size_t lane : set) {
        digest.push_back(static_cast<Word>(lane));
      }
    }
  }
  return digest;
}

class FusedDiffTest : public TableMatrixTest {
 protected:
  bool audit() const { return std::get<2>(GetParam()); }
};

TEST_P(FusedDiffTest, FusedBitIdenticalToUnfusedComposition) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{257}, std::size_t{1000}}) {
    const Inputs in(n, 0xf05ed000 + n);
    VectorMachine fused =
        make_fused_machine(order(), table(), audit(), /*fuse=*/true);
    VectorMachine unfused =
        make_fused_machine(order(), table(), audit(), /*fuse=*/false);
    const WordVec want = run_fused_script(unfused, in);
    const WordVec got = run_fused_script(fused, in);
    ASSERT_EQ(want, got) << "fused digest diverged at n=" << n;
  }
}

TEST_P(FusedDiffTest, ChimesInvariantAcrossBackendAndAudit) {
  // For a fixed fuse mode the chime stream is part of the deterministic
  // contract: any table, audit on or off — identical.
  for (const bool fuse : {true, false}) {
    const Inputs in(513, 0xc41135);
    VectorMachine base =
        make_fused_machine(order(), SimdLevel::kScalar, false, fuse);
    const WordVec base_digest = run_fused_script(base, in);
    VectorMachine other = make_fused_machine(order(), table(), audit(), fuse);
    const WordVec other_digest = run_fused_script(other, in);
    ASSERT_EQ(base_digest, other_digest);
    expect_same_costs(base.cost(), other.cost());
  }
}

std::string fused_param_name(
    const ::testing::TestParamInfo<TableParam>& info) {
  return std::string(
             kOrderNames[static_cast<std::size_t>(std::get<0>(info.param))]) +
         "x" + table_name(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "xAudit" : "xNoAudit");
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, FusedDiffTest, kTableParams,
                         fused_param_name);

// ---- SIMD backend differential fuzz ----------------------------------------
//
// The SIMD kinds run the same primitives through real vector instructions
// (AVX2 / AVX-512 / NEON, per-level kernel tables): they must be
// bit-identical to the serial machine for every primitive, every ScatterOrder, every forced ISA
// level, fuse on or off, audit on or off — same outputs, same memory images,
// same chime costs, same exceptions. Unsupported levels are skipped (the
// graceful-downgrade path is covered by simd_dispatch_test).

using SimdDiffParam = std::tuple<ScatterOrder, SimdLevel>;

std::string simd_param_name(
    const ::testing::TestParamInfo<SimdDiffParam>& info) {
  std::string level = simd_level_name(std::get<1>(info.param));
  level[0] = static_cast<char>(std::toupper(level[0]));
  return std::string(
             kOrderNames[static_cast<std::size_t>(std::get<0>(info.param))]) +
         "x" + level;
}

class SimdDiffTest : public ::testing::TestWithParam<SimdDiffParam> {
 protected:
  void SetUp() override {
    if (!simd_level_supported(level())) {
      GTEST_SKIP() << simd_level_name(level())
                   << " is not available on this host/build";
    }
  }
  ScatterOrder order() const { return std::get<0>(GetParam()); }
  SimdLevel level() const { return std::get<1>(GetParam()); }
};

TEST_P(SimdDiffTest, EveryPrimitiveBitIdenticalWithIdenticalChimes) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{257}, std::size_t{1000}, std::size_t{4099}}) {
    const Inputs in(n, 0xfeed0000 + n);
    VectorMachine serial = make_serial(order(), 99);
    VectorMachine simd = make_simd(order(), 99, level());
    ASSERT_STREQ(simd.backend_name(), "simd");
    ASSERT_EQ(simd.active_simd_level(), level());
    const WordVec want = run_script(serial, in);
    const WordVec got = run_script(simd, in);
    ASSERT_EQ(want, got) << "digest diverged at n=" << n;
    expect_same_costs(serial.cost(), simd.cost());
    // Vector instructions actually dispatched through the kernel table.
    EXPECT_GT(simd.simd_dispatches(), 0u);
    EXPECT_EQ(serial.simd_dispatches(), 0u);
  }
}

TEST_P(SimdDiffTest, FusedBitIdenticalAcrossFuseAndAudit) {
  for (const bool audit : {false, true}) {
    for (const bool fuse : {true, false}) {
      const Inputs in(513, 0x51a3d000u + (audit ? 2u : 0u) + (fuse ? 1u : 0u));
      MachineConfig serial_cfg;
      serial_cfg.scatter_order = order();
      serial_cfg.shuffle_seed = 4242;
      serial_cfg.audit = audit;
      serial_cfg.fuse = fuse;
      serial_cfg.backend = BackendKind::kSerial;
      MachineConfig simd_cfg = serial_cfg;
      simd_cfg.backend = BackendKind::kSimd;
      simd_cfg.simd_level = level();
      VectorMachine serial(serial_cfg);
      VectorMachine simd(simd_cfg);
      // Audit must NOT pin the SIMD backend to serial: the kernels run on
      // the issuing thread, so the audited machine stays vectorized.
      ASSERT_STREQ(simd.backend_name(), "simd");
      const WordVec want = run_fused_script(serial, in);
      const WordVec got = run_fused_script(simd, in);
      ASSERT_EQ(want, got) << "audit=" << audit << " fuse=" << fuse;
      expect_same_costs(serial.cost(), simd.cost());
    }
  }
}

TEST_P(SimdDiffTest, ScatterSurvivorLaneExactUnderHeavyCollisions) {
  // Heavy duplicate addresses: the AVX-512 hardware scatter's overlapping-
  // store order (and every fallback) must reproduce the serial ELS survivor.
  Xoshiro256 rng(0x51a3dc7);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 600));
    const auto table_size =
        static_cast<std::size_t>(rng.in_range(1, static_cast<Word>(n)));
    WordVec table_s(table_size, 0);
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) {
      x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    }
    for (auto& x : vals) x = rng.in_range(-1 << 20, 1 << 20);
    WordVec table_v = table_s;
    const auto seed = static_cast<std::uint64_t>(round) * 7919 + 1;
    VectorMachine serial = make_serial(order(), seed);
    VectorMachine simd = make_simd(order(), seed, level());
    serial.scatter(table_s, idx, vals);
    simd.scatter(table_v, idx, vals);
    ASSERT_EQ(table_s, table_v)
        << "scatter survivor diverged: n=" << n << " areas=" << table_size;
  }
}

TEST_P(SimdDiffTest, ExceptionParityWithSerial) {
  VectorMachine serial = make_serial(order(), 5);
  VectorMachine simd = make_simd(order(), 5, level());
  WordVec v(300, 1);
  v[257] = -4;
  EXPECT_THROW(serial.shl_scalar(v, 1), PreconditionError);
  EXPECT_THROW(simd.shl_scalar(v, 1), PreconditionError);
  WordVec table(16, 0);
  WordVec idx(300, 3);
  idx[170] = 99;
  EXPECT_THROW(serial.gather(table, idx), PreconditionError);
  EXPECT_THROW(simd.gather(table, idx), PreconditionError);
  const WordVec vals(300, 1);
  EXPECT_THROW(serial.scatter(table, idx, vals), PreconditionError);
  EXPECT_THROW(simd.scatter(table, idx, vals), PreconditionError);
  // Inactive out-of-bounds lanes are legal on both (the masked gather
  // kernel must not touch memory for inactive lanes).
  Mask mask(300, 1);
  mask[170] = 0;
  EXPECT_EQ(serial.gather_masked(table, idx, mask, -1),
            simd.gather_masked(table, idx, mask, -1));
  WordVec table_s = table;
  WordVec table_v = table;
  serial.scatter_masked(table_s, idx, vals, mask);
  simd.scatter_masked(table_v, idx, vals, mask);
  EXPECT_EQ(table_s, table_v);
}

TEST_P(SimdDiffTest, DivModScalarAdversarialValues) {
  // The div_s/mod_s kernels replace the hardware-less 64-bit divide with a
  // magic multiply; the magic pair and the floor/Euclid fixups must hold at
  // the extremes, for power-of-two divisors, and for the composite table
  // sizes the hashing probe recalc actually feeds them.
  WordVec values{0,
                 1,
                 -1,
                 2,
                 -2,
                 66,
                 -66,
                 67,
                 -67,
                 135,
                 -135,
                 (Word{1} << 62) - 1,
                 -((Word{1} << 62) - 1),
                 std::numeric_limits<Word>::max(),
                 std::numeric_limits<Word>::min(),
                 std::numeric_limits<Word>::min() + 1};
  Xoshiro256 rng(0xd1f0d1f0);
  while (values.size() < 300) {
    values.push_back(static_cast<Word>(rng.next()));
  }
  for (const Word d :
       {Word{1}, Word{2}, Word{3}, Word{7}, Word{31}, Word{64}, Word{67},
        Word{135}, Word{4096}, Word{999983}, (Word{1} << 62) + 1}) {
    VectorMachine serial = make_serial(order(), 7);
    VectorMachine simd = make_simd(order(), 7, level());
    const WordVec q_want = serial.div_scalar(values, d);
    const WordVec q_got = simd.div_scalar(values, d);
    const WordVec r_want = serial.mod_scalar(values, d);
    const WordVec r_got = simd.mod_scalar(values, d);
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(q_want[i], q_got[i]) << "div " << values[i] << " / " << d;
      ASSERT_EQ(r_want[i], r_got[i]) << "mod " << values[i] << " % " << d;
      // Floor/Euclid invariants against first principles.
      ASSERT_GE(r_want[i], 0) << values[i] << " % " << d;
      ASSERT_LT(r_want[i], d) << values[i] << " % " << d;
    }
  }
  // Wrap-around arithmetic: at the extremes every one of these ops
  // overflows, and each lane must wrap modulo 2^64 — as defined behaviour,
  // in the vector body and in the tail lanes alike.
  constexpr Word kMax = std::numeric_limits<Word>::max();
  constexpr Word kMin = std::numeric_limits<Word>::min();
  WordVec a = values;
  a.insert(a.end(), {kMax, kMin, kMax - 1, kMin + 1, kMax, kMin, -1});
  const WordVec b(a.rbegin(), a.rend());
  const auto u = [](Word x) { return static_cast<std::uint64_t>(x); };
  const auto wrap = [](std::uint64_t x) { return static_cast<Word>(x); };
  std::uint64_t total = 0;
  for (const Word x : a) total += u(x);
  VectorMachine serial = make_serial(order(), 7);
  VectorMachine simd = make_simd(order(), 7, level());
  for (VectorMachine* m : {&serial, &simd}) {
    SCOPED_TRACE(m->backend_name());
    const WordVec sum = m->add(a, b);
    const WordVec diff = m->sub(a, b);
    const WordVec prod = m->mul(a, b);
    const WordVec sum_s = m->add_scalar(a, kMax);
    const WordVec prod_s = m->mul_scalar(a, kMin + 1);
    const WordVec neg = m->negate(a);
    const WordVec ramp = m->iota(a.size(), kMax, kMax - 2);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(sum[i], wrap(u(a[i]) + u(b[i]))) << "lane " << i;
      ASSERT_EQ(diff[i], wrap(u(a[i]) - u(b[i]))) << "lane " << i;
      ASSERT_EQ(prod[i], wrap(u(a[i]) * u(b[i]))) << "lane " << i;
      ASSERT_EQ(sum_s[i], wrap(u(a[i]) + u(kMax))) << "lane " << i;
      ASSERT_EQ(prod_s[i], wrap(u(a[i]) * u(kMin + 1))) << "lane " << i;
      ASSERT_EQ(neg[i], wrap(std::uint64_t{0} - u(a[i]))) << "lane " << i;
      ASSERT_EQ(ramp[i], wrap(u(kMax) + u(kMax - 2) * i)) << "lane " << i;
    }
    ASSERT_EQ(m->reduce_sum(a), wrap(total));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersAllLevels, SimdDiffTest,
    ::testing::Combine(::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(SimdLevel::kScalar, SimdLevel::kNeon,
                                         SimdLevel::kAvx2,
                                         SimdLevel::kAvx512)),
    simd_param_name);

TEST(SimdMixedLevelTest, AllSupportedLevelsProduceOneDigest) {
  // Mixed-level differential fuzz: every supported ISA level (and the
  // scalar table) must produce the same digest for the same script — not
  // just each level vs serial, but every pair, including fused scripts.
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kNeon, SimdLevel::kAvx2,
        SimdLevel::kAvx512}) {
    if (simd_level_supported(level)) levels.push_back(level);
  }
  ASSERT_FALSE(levels.empty());
  for (const ScatterOrder order :
       {ScatterOrder::kForward, ScatterOrder::kReverse,
        ScatterOrder::kShuffled}) {
    for (const std::size_t n : {std::size_t{65}, std::size_t{1000}}) {
      const Inputs in(n, 0x3113d000 + n);
      std::vector<WordVec> digests;
      std::vector<WordVec> fused_digests;
      for (const SimdLevel level : levels) {
        VectorMachine m = make_simd(order, 99, level);
        digests.push_back(run_script(m, in));
        MachineConfig cfg;
        cfg.scatter_order = order;
        cfg.shuffle_seed = 4242;
        cfg.audit = false;
        cfg.fuse = true;
        cfg.backend = BackendKind::kSimd;
        cfg.simd_level = level;
        VectorMachine fm(cfg);
        fused_digests.push_back(run_fused_script(fm, in));
      }
      for (std::size_t i = 1; i < levels.size(); ++i) {
        EXPECT_EQ(digests[0], digests[i])
            << simd_level_name(levels[0]) << " vs "
            << simd_level_name(levels[i]) << " at n=" << n;
        EXPECT_EQ(fused_digests[0], fused_digests[i])
            << "fused " << simd_level_name(levels[0]) << " vs "
            << simd_level_name(levels[i]) << " at n=" << n;
      }
    }
  }
}

TEST(SimdMixedLevelTest, LaneKernelsMatchScalarAtEdgeLengthsOnEveryTable) {
  // A compiled or hand-written lane loop has a prologue, a vector body and
  // a tail; these lengths put the end of the span on both sides of one, two
  // and four 256/512-bit blocks and of a 32- or 64-byte mask block, which
  // the fuzz lengths never pin. The lanes hold INT64_MIN/INT64_MAX, so every
  // wrap-around path runs. Each table must match the scalar reference table
  // entry for entry over [lo, n) and leave the lanes outside it untouched.
  constexpr Word kMax = std::numeric_limits<Word>::max();
  constexpr Word kMin = std::numeric_limits<Word>::min();
  constexpr Word kSentinel = 0x5e5e;
  const Word extremes[] = {kMin, kMax, kMin + 1, kMax - 1, -1, 0, 1};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  for (const std::size_t edge :
       {std::size_t{32}, std::size_t{64}, std::size_t{128}}) {
    for (std::size_t n = edge - 1; n <= edge + 1; ++n) lengths.push_back(n);
  }
  const SimdKernels& ref = simd_kernels_scalar();
  for (const SimdLevel level :
       {SimdLevel::kNeon, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!simd_level_supported(level)) continue;
    const SimdKernels& t = simd_kernels_for(level);
    for (const std::size_t n : lengths) {
      const std::size_t cap = n + 8;
      Xoshiro256 rng(0xed6e0000 + n);
      const auto lane = [&] {
        return rng.below(3) == 0 ? extremes[rng.below(std::size(extremes))]
                                 : static_cast<Word>(rng.next());
      };
      WordVec a(cap);
      WordVec b(cap);
      std::vector<std::uint8_t> m1(cap);
      std::vector<std::uint8_t> m2(cap);
      for (std::size_t i = 0; i < cap; ++i) {
        a[i] = lane();
        b[i] = rng.below(3) == 0 ? a[i] : lane();
        m1[i] = static_cast<std::uint8_t>(rng.below(2));
        m2[i] = static_cast<std::uint8_t>(rng.below(2));
      }
      for (const std::size_t lo : {std::size_t{0}, std::size_t{1}}) {
        if (lo > n) continue;
        const auto where = [&](const char* entry) {
          std::ostringstream os;
          os << simd_level_name(level) << "." << entry << " n=" << n
             << " lo=" << lo;
          return os.str();
        };
        const auto words = [&](const char* entry, const auto& run) {
          WordVec want(cap, kSentinel);
          WordVec got(cap, kSentinel);
          run(ref, want.data());
          run(t, got.data());
          EXPECT_EQ(want, got) << where(entry);
        };
        const auto bytes = [&](const char* entry, const auto& run) {
          std::vector<std::uint8_t> want(cap, 0x5e);
          std::vector<std::uint8_t> got(cap, 0x5e);
          run(ref, want.data());
          run(t, got.data());
          EXPECT_EQ(want, got) << where(entry);
        };
        const Word* pa = a.data();
        const Word* pb = b.data();
        const std::uint8_t* p1 = m1.data();
        const std::uint8_t* p2 = m2.data();
        using K = const SimdKernels&;
        words("add", [&](K k, Word* o) { k.add(o, pa, pb, lo, n); });
        words("sub", [&](K k, Word* o) { k.sub(o, pa, pb, lo, n); });
        words("mul", [&](K k, Word* o) { k.mul(o, pa, pb, lo, n); });
        for (const Word s : {kMax, kMin, Word{3}, Word{-7}}) {
          words("add_s", [&](K k, Word* o) { k.add_s(o, pa, s, lo, n); });
          words("mul_s", [&](K k, Word* o) { k.mul_s(o, pa, s, lo, n); });
          words("and_s", [&](K k, Word* o) { k.and_s(o, pa, s, lo, n); });
          words("or_s", [&](K k, Word* o) { k.or_s(o, pa, s, lo, n); });
        }
        for (const Word s : {Word{0}, Word{1}, Word{63}}) {
          words("shr_s", [&](K k, Word* o) { k.shr_s(o, pa, s, lo, n); });
        }
        words("neg", [&](K k, Word* o) { k.neg(o, pa, 0, lo, n); });
        words("select", [&](K k, Word* o) { k.select(o, p1, pa, pb, lo, n); });
        words("from_mask", [&](K k, Word* o) { k.from_mask(o, p1, lo, n); });
        words("iota", [&](K k, Word* o) { k.iota(o, kMax, kMax - 2, lo, n); });
        bytes("cmp_eq",
              [&](K k, std::uint8_t* o) { k.cmp_eq(o, pa, pb, lo, n); });
        bytes("cmp_ne",
              [&](K k, std::uint8_t* o) { k.cmp_ne(o, pa, pb, lo, n); });
        bytes("cmp_le",
              [&](K k, std::uint8_t* o) { k.cmp_le(o, pa, pb, lo, n); });
        bytes("cmp_lt",
              [&](K k, std::uint8_t* o) { k.cmp_lt(o, pa, pb, lo, n); });
        for (const Word s : {kMin, kMax, Word{0}, a[0]}) {
          bytes("cmp_eq_s",
                [&](K k, std::uint8_t* o) { k.cmp_eq_s(o, pa, s, lo, n); });
          bytes("cmp_ne_s",
                [&](K k, std::uint8_t* o) { k.cmp_ne_s(o, pa, s, lo, n); });
          bytes("cmp_le_s",
                [&](K k, std::uint8_t* o) { k.cmp_le_s(o, pa, s, lo, n); });
          bytes("cmp_lt_s",
                [&](K k, std::uint8_t* o) { k.cmp_lt_s(o, pa, s, lo, n); });
          bytes("cmp_ge_s",
                [&](K k, std::uint8_t* o) { k.cmp_ge_s(o, pa, s, lo, n); });
        }
        bytes("mask_and",
              [&](K k, std::uint8_t* o) { k.mask_and(o, p1, p2, lo, n); });
        bytes("mask_or",
              [&](K k, std::uint8_t* o) { k.mask_or(o, p1, p2, lo, n); });
        bytes("mask_not",
              [&](K k, std::uint8_t* o) { k.mask_not(o, p1, lo, n); });
        // The whole-span entries see the span [lo, n) as their vector.
        const std::size_t len = n - lo;
        EXPECT_EQ(ref.reduce_sum(pa + lo, len), t.reduce_sum(pa + lo, len))
            << where("reduce_sum");
        EXPECT_EQ(ref.count_true(p1 + lo, len), t.count_true(p1 + lo, len))
            << where("count_true");
        if (len == 0) continue;
        EXPECT_EQ(ref.reduce_min(pa + lo, len), t.reduce_min(pa + lo, len))
            << where("reduce_min");
        EXPECT_EQ(ref.reduce_max(pa + lo, len), t.reduce_max(pa + lo, len))
            << where("reduce_max");
      }
    }
  }
}

// ---- full and fused scripts over the table x order x fuse matrix ---------
//
// For every ScatterOrder, fuse mode, and kernel table the host supports
// (the scalar reference table or one SIMD level's), the machine must be
// bit-identical — outputs, memory images, and chimes — to the serial
// reference in the same fuse mode, on both the primitive script and the
// fused-kernel script.

class MergeScalingDiffTest : public TableMatrixTest {
 protected:
  bool fuse() const { return std::get<2>(GetParam()); }
};

TEST_P(MergeScalingDiffTest, FullScriptBitIdenticalToSerial) {
  for (const std::size_t n : {std::size_t{257}, std::size_t{1000}}) {
    const Inputs in(n, 0x4e46e000 + n);
    VectorMachine serial = make_table(order(), 99, SimdLevel::kScalar, fuse());
    VectorMachine other = make_table(order(), 99, table(), fuse());
    const WordVec want = run_script(serial, in);
    const WordVec got = run_script(other, in);
    ASSERT_EQ(want, got) << "digest diverged at n=" << n;
    expect_same_costs(serial.cost(), other.cost());
  }
}

TEST_P(MergeScalingDiffTest, FusedScriptBitIdenticalForEitherFuseMode) {
  const Inputs in(600, 0x4e46ef);
  VectorMachine serial = make_fused_machine(order(), SimdLevel::kScalar,
                                            /*audit=*/false, fuse());
  VectorMachine other =
      make_fused_machine(order(), table(), /*audit=*/false, fuse());
  const WordVec want = run_fused_script(serial, in);
  const WordVec got = run_fused_script(other, in);
  ASSERT_EQ(want, got) << "fuse=" << fuse();
  expect_same_costs(serial.cost(), other.cost());
}

INSTANTIATE_TEST_SUITE_P(AllOrdersTablesFuseModes, MergeScalingDiffTest,
                         kTableParams, table_param_name);

TEST(FusedDiffEdgeTest, MaskedSgeFaultsLikeCompositionWithScatterApplied) {
  // An out-of-bounds INACTIVE lane: the masked scatter skips it, but the
  // fused op's readback gathers all lanes, so it must throw exactly like
  // the unfused composition does at its gather — i.e. with the scatter's
  // stores already landed.
  for (const bool fuse : {true, false}) {
    VectorMachine m = make_fused_machine(ScatterOrder::kForward,
                                         SimdLevel::kScalar,
                                         /*audit=*/false, fuse);
    WordVec table(16, -1);
    WordVec idx{3, 99, 5};
    const WordVec vals{10, 11, 12};
    Mask active{1, 0, 1};
    EXPECT_THROW(m.scatter_gather_eq_masked(table, idx, vals, active),
                 PreconditionError);
    EXPECT_EQ(table[3], 10);
    EXPECT_EQ(table[5], 12);
  }
}

}  // namespace
}  // namespace folvec::vm

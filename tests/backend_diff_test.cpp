// Differential fuzz of the backend kinds: every worker count and kernel
// table must be bit-identical to the serial machine (the scalar reference
// table on one worker) for every primitive, under every ScatterOrder — same
// outputs, same memory images, same chime costs, same exceptions. The parallel machines run with a tiny
// backend_grain so even short vectors actually cross the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <set>
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
#include "vm/buffer_pool.h"
#include "vm/checker.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"
#include "vm/thread_pool.h"

namespace folvec::vm {
namespace {

MachineConfig diff_config(ScatterOrder order, std::uint64_t seed) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = seed;
  // The fuzz scatters duplicate addresses outside ConflictWindows on
  // purpose; opt out of auditing regardless of the FOLVEC_AUDIT env (audit
  // would also pin the parallel machine to the serial path).
  cfg.audit = false;
  return cfg;
}

VectorMachine make_serial(ScatterOrder order, std::uint64_t seed) {
  MachineConfig cfg = diff_config(order, seed);
  cfg.backend = BackendKind::kSerial;
  return VectorMachine(cfg);
}

VectorMachine make_parallel(ScatterOrder order, std::uint64_t seed,
                            std::size_t threads, std::size_t grain = 8) {
  MachineConfig cfg = diff_config(order, seed);
  cfg.backend = BackendKind::kParallel;
  cfg.backend_threads = threads;
  cfg.backend_grain = grain;
  return VectorMachine(cfg);
}

VectorMachine make_simd(ScatterOrder order, std::uint64_t seed,
                        SimdLevel level) {
  MachineConfig cfg = diff_config(order, seed);
  cfg.backend = BackendKind::kSimd;
  cfg.simd_level = level;
  return VectorMachine(cfg);
}

VectorMachine make_parallel_simd(ScatterOrder order, std::uint64_t seed,
                                 std::size_t threads, SimdLevel level,
                                 std::size_t grain = 8) {
  MachineConfig cfg = diff_config(order, seed);
  cfg.backend = BackendKind::kParallelSimd;
  cfg.backend_threads = threads;
  cfg.backend_grain = grain;
  cfg.simd_level = level;
  return VectorMachine(cfg);
}

void expect_same_costs(const CostAccumulator& serial,
                       const CostAccumulator& parallel) {
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    const auto c = static_cast<OpClass>(i);
    EXPECT_EQ(serial.instructions(c), parallel.instructions(c))
        << "instruction count diverged for " << op_class_name(c);
    EXPECT_EQ(serial.elements(c), parallel.elements(c))
        << "element count diverged for " << op_class_name(c);
  }
}

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

class BackendDiffTest
    : public ::testing::TestWithParam<std::tuple<ScatterOrder, std::size_t>> {
 protected:
  ScatterOrder order() const { return std::get<0>(GetParam()); }
  std::size_t threads() const { return std::get<1>(GetParam()); }
};

TEST_P(BackendDiffTest, EveryPrimitiveBitIdenticalWithIdenticalChimes) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{257}, std::size_t{1000}, std::size_t{4099}}) {
    const Inputs in(n, 0xfeed0000 + n);
    VectorMachine serial = make_serial(order(), 99);
    VectorMachine parallel = make_parallel(order(), 99, threads());
    ASSERT_STREQ(parallel.backend_name(), "parallel");
    EXPECT_EQ(parallel.backend_workers(), threads());
    const WordVec want = run_script(serial, in);
    const WordVec got = run_script(parallel, in);
    ASSERT_EQ(want, got) << "digest diverged at n=" << n;
    expect_same_costs(serial.cost(), parallel.cost());
  }
}

TEST_P(BackendDiffTest, ScatterMergeLaneExactUnderHeavyCollisions) {
  Xoshiro256 rng(0xc0113c7);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 600));
    // Between 1 and n distinct addresses: the low end makes nearly every
    // lane collide, the merge's worst case.
    const auto table_size = static_cast<std::size_t>(
        rng.in_range(1, static_cast<Word>(n)));
    WordVec table_s(table_size, 0);
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) {
      x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    }
    for (auto& x : vals) x = rng.in_range(-1 << 20, 1 << 20);
    WordVec table_p = table_s;
    const auto seed = static_cast<std::uint64_t>(round) * 7919 + 1;
    VectorMachine serial = make_serial(order(), seed);
    VectorMachine parallel = make_parallel(order(), seed, threads(),
                                           /*grain=*/1);
    serial.scatter(table_s, idx, vals);
    parallel.scatter(table_p, idx, vals);
    ASSERT_EQ(table_s, table_p)
        << "scatter survivor diverged: n=" << n << " areas=" << table_size;
  }
}

TEST_P(BackendDiffTest, ExceptionParityAcrossWorkerThreads) {
  VectorMachine serial = make_serial(order(), 5);
  VectorMachine parallel = make_parallel(order(), 5, threads());
  // A negative element deep inside one chunk: the worker's exception must
  // surface on the issuing thread with the serial exception type.
  WordVec v(300, 1);
  v[257] = -4;
  EXPECT_THROW(serial.shl_scalar(v, 1), PreconditionError);
  EXPECT_THROW(parallel.shl_scalar(v, 1), PreconditionError);
  // Out-of-bounds lane in the middle of a gather/scatter.
  WordVec table(16, 0);
  WordVec idx(300, 3);
  idx[170] = 99;
  EXPECT_THROW(serial.gather(table, idx), PreconditionError);
  EXPECT_THROW(parallel.gather(table, idx), PreconditionError);
  const WordVec vals(300, 1);
  EXPECT_THROW(serial.scatter(table, idx, vals), PreconditionError);
  EXPECT_THROW(parallel.scatter(table, idx, vals), PreconditionError);
  // Inactive out-of-bounds lanes are legal on both.
  Mask mask(300, 1);
  mask[170] = 0;
  WordVec table_s = table;
  WordVec table_p = table;
  serial.scatter_masked(table_s, idx, vals, mask);
  parallel.scatter_masked(table_p, idx, vals, mask);
  EXPECT_EQ(table_s, table_p);
}

std::string diff_param_name(
    const ::testing::TestParamInfo<std::tuple<ScatterOrder, std::size_t>>&
        info) {
  static constexpr const char* kOrderNames[] = {"Forward", "Reverse",
                                                "Shuffled"};
  return std::string(
             kOrderNames[static_cast<std::size_t>(std::get<0>(info.param))]) +
         "x" + std::to_string(std::get<1>(info.param)) + "threads";
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersAllThreadCounts, BackendDiffTest,
    ::testing::Combine(::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8})),
    diff_param_name);

TEST(BackendDiffLargeTest, LargeVectorsWithDefaultGrain) {
  const std::size_t n = 200000;
  const Inputs in(n, 0xabcde);
  VectorMachine serial = make_serial(ScatterOrder::kShuffled, 7);
  VectorMachine parallel =
      make_parallel(ScatterOrder::kShuffled, 7, 4, /*grain=*/4096);
  const WordVec want = run_script(serial, in);
  const WordVec got = run_script(parallel, in);
  ASSERT_EQ(want, got);
  expect_same_costs(serial.cost(), parallel.cost());
}

TEST(BackendDiffLargeTest, AuditModePinsParallelConfigToSerialPath) {
  MachineConfig cfg;
  cfg.backend = BackendKind::kParallel;
  cfg.backend_threads = 4;
  cfg.audit = true;
  const VectorMachine m(cfg);
  EXPECT_STREQ(m.backend_name(), "serial");
  EXPECT_EQ(m.backend_workers(), 1u);
}

// ---- telemetry determinism across backends ---------------------------------
//
// The metrics contract (telemetry/metrics.h): everything outside the "pool."
// and "backend." namespaces carries modeled quantities and must be
// bit-identical for the same program on any backend at any worker count.
// The span timeline likewise: the same spans, in the same order, with the
// same chime deltas — only the wall timestamps differ.

VectorMachine make_telemetry_machine(BackendKind kind, std::size_t threads) {
  MachineConfig cfg;
  cfg.audit = false;  // audit would pin the parallel machine to serial
  cfg.backend = kind;
  cfg.backend_threads = threads;
  cfg.backend_grain = 8;  // force short vectors across the pool
  return VectorMachine(cfg);
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
                                            std::size_t threads) {
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetrics scoped(registry);
  {
    // The machine flushes its per-op-class totals on destruction, so the
    // snapshot is taken after this scope closes.
    VectorMachine m = make_telemetry_machine(kind, threads);
    telemetry_workload(m);
  }
  return registry.snapshot();
}

/// The backend-invariant part of a trace: span and op event names,
/// categories, and chime payloads, in emission order — everything but the
/// wall clock. Host-side decoration (thread metadata, per-worker "chunk"
/// slices, "flow" arrows, "counter" samples) is excluded by construction:
/// those describe how the host scheduled the work, not what the program
/// computed, and legitimately differ across backends and worker counts.
std::string span_tree_signature(BackendKind kind, std::size_t threads) {
  telemetry::SpanTracer tracer;
  {
    const telemetry::ScopedTracer scoped(tracer);
    VectorMachine m = make_telemetry_machine(kind, threads);
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

TEST(TelemetryDeterminismTest, MetricsIdenticalAcrossBackendsAndWorkers) {
  const telemetry::MetricsSnapshot serial =
      run_with_metrics(BackendKind::kSerial, 1).deterministic();
  ASSERT_FALSE(serial.counters.empty());
  ASSERT_FALSE(serial.histograms.empty());
  EXPECT_TRUE(serial.counters.contains("fol1.rounds"));
  EXPECT_TRUE(serial.counters.contains("hashing.retry_rounds"));
  for (const std::size_t workers : {1u, 2u, 8u}) {
    const telemetry::MetricsSnapshot parallel =
        run_with_metrics(BackendKind::kParallel, workers).deterministic();
    EXPECT_EQ(serial.to_text(), parallel.to_text())
        << "deterministic metrics diverged at " << workers << " workers";
    EXPECT_TRUE(serial == parallel);
  }
}

TEST(TelemetryDeterminismTest, FullSnapshotSeparatesHostOnlyNamespaces) {
  // The raw (non-deterministic view) parallel snapshot is allowed to differ
  // from serial ONLY via timings, labels, and the pool./backend. namespaces.
  const telemetry::MetricsSnapshot serial =
      run_with_metrics(BackendKind::kSerial, 1);
  const telemetry::MetricsSnapshot parallel =
      run_with_metrics(BackendKind::kParallel, 4);
  EXPECT_EQ(parallel.labels.at("backend.name"), "parallel");
  EXPECT_EQ(serial.labels.at("backend.name"), "serial");
  for (const auto& [name, value] : parallel.counters) {
    if (name.starts_with("pool.") || name.starts_with("backend.")) continue;
    ASSERT_TRUE(serial.counters.contains(name)) << name;
    EXPECT_EQ(serial.counters.at(name), value) << name;
  }
}

TEST(TelemetryDeterminismTest, SpanTreesIdenticalAcrossBackendsAndWorkers) {
  const std::string serial = span_tree_signature(BackendKind::kSerial, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("fol1.decompose|span"), std::string::npos);
  EXPECT_NE(serial.find("hashing.multi_insert|span"), std::string::npos);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    const std::string parallel =
        span_tree_signature(BackendKind::kParallel, workers);
    EXPECT_EQ(serial, parallel)
        << "span tree diverged at " << workers << " workers";
  }
}

TEST(TelemetryDeterminismTest, ParallelTraceHasWorkerTracksFlowsAndCounters) {
  telemetry::SpanTracer tracer;
  {
    const telemetry::ScopedTracer scoped(tracer);
    VectorMachine m = make_telemetry_machine(BackendKind::kParallel, 8);
    telemetry_workload(m);
    // The machine (and its pool) is destroyed before export: the joins
    // provide the quiescence the tracer's export contract requires.
  }
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue doc = JsonValue::parse(os.str());

  std::set<std::string> thread_names;
  std::set<double> named_tids;
  std::set<double> flow_start_ids;
  std::set<double> flow_end_ids;
  std::set<std::string> counter_names;
  std::set<double> span_tids;
  std::set<double> chunk_tids;
  for (const JsonValue& ev : doc.find("traceEvents")->as_array()) {
    const std::string ph = ev.find("ph")->as_string();
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    EXPECT_EQ(ev.find("pid")->as_number(), 1.0);
    if (ph == "M") {
      if (ev.find("name")->as_string() == "thread_name") {
        thread_names.insert(ev.find("args")->find("name")->as_string());
        named_tids.insert(ev.find("tid")->as_number());
      }
      continue;
    }
    // Every non-metadata event is timestamped and categorized.
    ASSERT_NE(ev.find("ts"), nullptr);
    const std::string cat = ev.find("cat")->as_string();
    if (ph == "s") {
      EXPECT_EQ(cat, "flow");
      flow_start_ids.insert(ev.find("id")->as_number());
    } else if (ph == "f") {
      EXPECT_EQ(cat, "flow");
      EXPECT_EQ(ev.find("bp")->as_string(), "e");
      flow_end_ids.insert(ev.find("id")->as_number());
    } else if (ph == "C") {
      EXPECT_EQ(cat, "counter");
      ASSERT_NE(ev.find("args")->find("value"), nullptr);
      counter_names.insert(ev.find("name")->as_string());
    } else {
      ASSERT_EQ(ph, "X");
      ASSERT_NE(ev.find("dur"), nullptr);
      EXPECT_TRUE(cat == "span" || cat == "op" || cat == "chunk") << cat;
      if (cat == "span" || cat == "op") {
        span_tids.insert(ev.find("tid")->as_number());
      } else {
        chunk_tids.insert(ev.find("tid")->as_number());
      }
    }
  }

  // Acceptance: distinct named tracks for main plus the pool workers.
  EXPECT_TRUE(thread_names.contains("main"));
  std::size_t worker_tracks = 0;
  for (const std::string& n : thread_names) {
    if (n.rfind("worker-", 0) == 0) ++worker_tracks;
  }
  EXPECT_GE(worker_tracks, 4u);
  EXPECT_GE(named_tids.size(), 5u);
  EXPECT_GE(tracer.track_count(), 5u);

  // Deterministic span/op events all ride the issuing ("main") thread;
  // chunk slices fan out across the worker tracks.
  ASSERT_EQ(span_tids.size(), 1u);
  EXPECT_FALSE(chunk_tids.empty());
  EXPECT_GT(chunk_tids.size(), 1u);

  // Flow arrows: every finish id was started, and at least one flush
  // produced arrows at all.
  EXPECT_FALSE(flow_start_ids.empty());
  EXPECT_FALSE(flow_end_ids.empty());
  for (const double id : flow_end_ids) {
    EXPECT_TRUE(flow_start_ids.contains(id)) << "unmatched flow id " << id;
  }

  // Counter tracks: batch occupancy and pool occupancy at minimum.
  EXPECT_GE(counter_names.size(), 2u);
  EXPECT_TRUE(counter_names.contains("pool.occupancy"));
}

// ---- fused vs unfused differential fuzz ------------------------------------
//
// The fused scatter_gather_eq / partition kernels are an optimization, not a
// semantics change: for every ScatterOrder, every backend, every worker
// count, and audit on or off, a machine with config.fuse=true must produce
// bit-identical outputs and memory images to the same machine running the
// unfused reference composition (fuse=false). Chimes are NOT compared
// across fuse modes — charging fused ops less is the point — but they must
// be identical across backends and audit settings for a fixed fuse mode.

/// Machine whose fuse flag is forced rather than left at its default.
VectorMachine make_fused_machine(ScatterOrder order, std::size_t threads,
                                 bool audit, bool fuse) {
  MachineConfig cfg;
  cfg.scatter_order = order;
  cfg.shuffle_seed = 4242;
  cfg.audit = audit;
  cfg.fuse = fuse;
  if (threads == 0) {
    cfg.backend = BackendKind::kSerial;
  } else {
    cfg.backend = BackendKind::kParallel;
    cfg.backend_threads = threads;
    cfg.backend_grain = 8;
  }
  return VectorMachine(cfg);
}

/// Exercises the fused entry points plus their pooled *_into variants and
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

  // Pooled destination-passing round trip.
  PooledVec buf(m.pool(), 0);
  PooledVec buf2(m.pool(), 0);
  m.gather_into(*buf, in.table, in.idx);
  emit(*buf);
  m.add_scalar_into(*buf2, *buf, 11);
  emit(*buf2);
  m.compress_into(*buf, in.a, in.mask);
  emit(*buf);

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

class FusedDiffTest
    : public ::testing::TestWithParam<
          std::tuple<ScatterOrder, std::size_t, bool>> {
 protected:
  ScatterOrder order() const { return std::get<0>(GetParam()); }
  /// 0 = serial backend; otherwise parallel with this worker count.
  std::size_t threads() const { return std::get<1>(GetParam()); }
  bool audit() const { return std::get<2>(GetParam()); }
};

TEST_P(FusedDiffTest, FusedBitIdenticalToUnfusedComposition) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{257}, std::size_t{1000}}) {
    const Inputs in(n, 0xf05ed000 + n);
    VectorMachine fused = make_fused_machine(order(), threads(), audit(),
                                             /*fuse=*/true);
    VectorMachine unfused = make_fused_machine(order(), threads(), audit(),
                                               /*fuse=*/false);
    const WordVec want = run_fused_script(unfused, in);
    const WordVec got = run_fused_script(fused, in);
    ASSERT_EQ(want, got) << "fused digest diverged at n=" << n;
  }
}

TEST_P(FusedDiffTest, ChimesInvariantAcrossBackendAndAudit) {
  // For a fixed fuse mode the chime stream is part of the deterministic
  // contract: serial, parallel at any width, audit on or off — identical.
  for (const bool fuse : {true, false}) {
    const Inputs in(513, 0xc41135);
    VectorMachine base = make_fused_machine(order(), 0, false, fuse);
    const WordVec base_digest = run_fused_script(base, in);
    VectorMachine other =
        make_fused_machine(order(), threads(), audit(), fuse);
    const WordVec other_digest = run_fused_script(other, in);
    ASSERT_EQ(base_digest, other_digest);
    expect_same_costs(base.cost(), other.cost());
  }
}

using FusedDiffParam = std::tuple<ScatterOrder, std::size_t, bool>;

std::string fused_param_name(
    const ::testing::TestParamInfo<FusedDiffParam>& info) {
  static constexpr const char* kFusedOrderNames[] = {"Forward", "Reverse",
                                                     "Shuffled"};
  const std::size_t workers = std::get<1>(info.param);
  return std::string(kFusedOrderNames[static_cast<std::size_t>(
             std::get<0>(info.param))]) +
         (workers == 0 ? std::string("xSerial")
                       : "xParallel" + std::to_string(workers)) +
         (std::get<2>(info.param) ? "xAudit" : "xNoAudit");
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FusedDiffTest,
    ::testing::Combine(::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{4},
                                         std::size_t{8}),
                       ::testing::Bool()),
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
  static constexpr const char* kOrderNames[] = {"Forward", "Reverse",
                                                "Shuffled"};
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

TEST_P(SimdDiffTest, ComposesWithParallelBackend) {
  // parallel+simd: pool chunks run the SIMD inner loops. Must match serial
  // for the full script at multiple worker counts; one worker is the
  // deployed configuration, where every instruction runs unsplit.
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const Inputs in(1000, 0xc0de5000 + threads);
    VectorMachine serial = make_serial(order(), 99);
    VectorMachine both = make_parallel_simd(order(), 99, threads, level());
    ASSERT_STREQ(both.backend_name(), "parallel+simd");
    EXPECT_EQ(both.backend_workers(), threads);
    ASSERT_EQ(both.active_simd_level(), level());
    const WordVec want = run_script(serial, in);
    const WordVec got = run_script(both, in);
    ASSERT_EQ(want, got) << "threads=" << threads;
    expect_same_costs(serial.cost(), both.cost());
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

// ---- scatter-merge scaling fuzz --------------------------------------------
//
// A scatter split across workers runs the single-pass claim-interval merge:
// for every ScatterOrder, worker count, fuse mode, and kernel table (the
// scalar reference table, or the widest table the host supports), the
// machine must be bit-identical — outputs, memory images, and chimes — to
// the serial reference.

using MergeScalingParam = std::tuple<ScatterOrder, std::size_t, bool>;

class MergeScalingDiffTest
    : public ::testing::TestWithParam<MergeScalingParam> {
 protected:
  ScatterOrder order() const { return std::get<0>(GetParam()); }
  std::size_t threads() const { return std::get<1>(GetParam()); }
  bool simd_table() const { return std::get<2>(GetParam()); }

  /// kParallel on the scalar table, or kParallelSimd on the widest table.
  void use_table(MachineConfig& cfg) const {
    cfg.backend =
        simd_table() ? BackendKind::kParallelSimd : BackendKind::kParallel;
    cfg.simd_level = SimdLevel::kAuto;
  }
};

TEST_P(MergeScalingDiffTest, FullScriptBitIdenticalToSerial) {
  for (const std::size_t n : {std::size_t{257}, std::size_t{1000}}) {
    const Inputs in(n, 0x4e46e000 + n);
    VectorMachine serial = make_serial(order(), 99);
    VectorMachine parallel =
        simd_table() ? make_parallel_simd(order(), 99, threads(),
                                          SimdLevel::kAuto, /*grain=*/8)
                     : make_parallel(order(), 99, threads(), /*grain=*/8);
    const WordVec want = run_script(serial, in);
    const WordVec got = run_script(parallel, in);
    ASSERT_EQ(want, got) << "digest diverged at n=" << n;
    expect_same_costs(serial.cost(), parallel.cost());
  }
}

TEST_P(MergeScalingDiffTest, FusedScriptBitIdenticalForEitherFuseMode) {
  for (const bool fuse : {true, false}) {
    const Inputs in(600, 0x4e46ef);
    MachineConfig serial_cfg;
    serial_cfg.scatter_order = order();
    serial_cfg.shuffle_seed = 4242;
    serial_cfg.audit = false;
    serial_cfg.fuse = fuse;
    serial_cfg.backend = BackendKind::kSerial;
    MachineConfig par_cfg = serial_cfg;
    use_table(par_cfg);
    par_cfg.backend_threads = threads();
    par_cfg.backend_grain = 8;
    VectorMachine serial(serial_cfg);
    VectorMachine parallel(par_cfg);
    const WordVec want = run_fused_script(serial, in);
    const WordVec got = run_fused_script(parallel, in);
    ASSERT_EQ(want, got) << "fuse=" << fuse;
    expect_same_costs(serial.cost(), parallel.cost());
  }
}

std::string merge_scaling_param_name(
    const ::testing::TestParamInfo<MergeScalingParam>& info) {
  static constexpr const char* kOrderNames[] = {"Forward", "Reverse",
                                                "Shuffled"};
  return std::string(
             kOrderNames[static_cast<std::size_t>(std::get<0>(info.param))]) +
         "x" + std::to_string(std::get<1>(info.param)) + "threadsx" +
         (std::get<2>(info.param) ? "SimdTable" : "ScalarTable");
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersWorkersTables, MergeScalingDiffTest,
    ::testing::Combine(::testing::Values(ScatterOrder::kForward,
                                         ScatterOrder::kReverse,
                                         ScatterOrder::kShuffled),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8}),
                       ::testing::Bool()),
    merge_scaling_param_name);

TEST(FusedDiffEdgeTest, MaskedSgeFaultsLikeCompositionWithScatterApplied) {
  // An out-of-bounds INACTIVE lane: the masked scatter skips it, but the
  // fused op's readback gathers all lanes, so it must throw exactly like
  // the unfused composition does at its gather — i.e. with the scatter's
  // stores already landed.
  for (const bool fuse : {true, false}) {
    VectorMachine m = make_fused_machine(ScatterOrder::kForward, 0,
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

// The pool's one schedule is run_affine: at most one task per worker, so
// every job here uses task counts <= pool size.

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.size(), workers);
    for (std::size_t tasks = 0; tasks <= workers; ++tasks) {
      std::vector<int> hits(tasks, 0);
      pool.run_affine(tasks, [&](std::size_t i) { hits[i] += 1; });
      for (int h : hits) EXPECT_EQ(h, 1) << "workers=" << workers;
    }
  }
}

TEST(ThreadPoolTest, RethrowsLowestTaskException) {
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    for (const std::size_t tasks : {2u, 5u, 8u}) {
      try {
        pool.run_affine(tasks, [&](std::size_t i) {
          if (i % 2 == 1 || i == tasks - 1) {
            throw std::runtime_error("task " + std::to_string(i));
          }
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 1");
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::size_t total = 0;
  std::size_t want = 0;
  for (int job = 0; job < 100; ++job) {
    const std::size_t tasks = 1 + static_cast<std::size_t>(job) % 3;
    std::vector<std::size_t> marks(tasks, 0);
    pool.run_affine(tasks, [&](std::size_t i) { marks[i] = i + 1; });
    for (std::size_t i = 0; i < tasks; ++i) {
      total += marks[i];
      want += i + 1;
    }
  }
  EXPECT_EQ(total, want);
}

}  // namespace
}  // namespace folvec::vm

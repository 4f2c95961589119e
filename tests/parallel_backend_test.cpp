// Unit and regression tests for the backend's chunking internals: the chunk
// planner (overflow + zero-lane-chunk clipping), the early-cut first_oob
// scan, the lane-exact scatter merge, worker chunk affinity, and the
// algorithm digests and elementwise chains across backends. The oracle is
// the one-worker scalar-table backend (and apply_scatter_reference for
// scatters).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fol/fol_star.h"
#include "sorting/address_calc.h"
#include "sorting/radix.h"
#include "support/prng.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "vm/backend.h"
#include "vm/machine.h"
#include "vm/simd_kernels.h"
#include "vm/thread_pool.h"

namespace folvec::vm {
namespace {

/// A backend on the scalar reference table; one worker is the oracle.
Backend scalar_backend(std::size_t workers) {
  return Backend(simd_kernels_scalar(), workers, /*grain=*/1);
}

// ---- chunk planner ---------------------------------------------------------

TEST(ChunkPlanTest, EvenAndRaggedPlansCoverEveryLaneOnce) {
  for (const std::size_t n : {0u, 1u, 5u, 6u, 7u, 8u, 63u, 64u, 65u, 1000u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 4u, 7u, 8u, 16u}) {
      const detail::ChunkPlan p = detail::plan(n, chunks);
      const std::size_t count = p.count();
      ASSERT_LE(count, chunks) << "n=" << n << " chunks=" << chunks;
      std::size_t covered = 0;
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(p.lo(i), covered);
        ASSERT_LT(p.lo(i), p.hi(i))
            << "zero-lane chunk planned: n=" << n << " chunks=" << chunks
            << " i=" << i;
        covered = p.hi(i);
      }
      ASSERT_EQ(covered, n);
    }
  }
}

TEST(ChunkPlanTest, CeilDivisionDoesNotWrapNearSizeMax) {
  // Regression: the textbook (n + chunks - 1) / chunks overflows for n near
  // SIZE_MAX, planning step 0 and an infinite chunk walk.
  const std::size_t n = std::numeric_limits<std::size_t>::max() - 5;
  for (const std::size_t chunks : {1u, 2u, 7u, 8u}) {
    const detail::ChunkPlan p = detail::plan(n, chunks);
    ASSERT_GT(p.step, 0u);
    ASSERT_GE(p.step, n / chunks);
    const std::size_t count = p.count();
    ASSERT_GE(count, 1u);
    ASSERT_LE(count, chunks);
    // The last chunk is non-empty and ends exactly at n.
    ASSERT_LT(p.lo(count - 1), p.hi(count - 1));
    ASSERT_EQ(p.hi(count - 1), n);
  }
}

TEST(ChunkPlanTest, TinyVectorsClipEmptyTailChunks) {
  // workers=4 over 6 lanes plans step 2 -> 3 chunks, not 4: the zero-lane
  // tail chunk must be clipped before dispatch (the pooled reduce seeds
  // each chunk's partial with v[lo], which reads out of bounds on an empty
  // chunk).
  EXPECT_EQ(detail::plan(6, 4).count(), 3u);
  EXPECT_EQ(detail::plan(5, 4).count(), 3u);
  EXPECT_EQ(detail::plan(1, 8).count(), 1u);
  EXPECT_EQ(detail::plan(8, 8).count(), 8u);
  EXPECT_EQ(detail::plan(9, 8).count(), 5u);
}

// Machine-level regression for the empty-tail-chunk OOB read: tiny vectors
// on a wide machine with grain 1 must reduce exactly like serial.
TEST(ChunkPlanTest, TinyVectorReductionsMatchSerialAtGrainOne) {
  MachineConfig serial_cfg;
  serial_cfg.backend = BackendKind::kSerial;
  MachineConfig par_cfg;
  par_cfg.backend = BackendKind::kParallel;
  par_cfg.backend_threads = 4;
  par_cfg.backend_grain = 1;
  VectorMachine serial(serial_cfg);
  VectorMachine parallel(par_cfg);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 13u}) {
    Xoshiro256 rng(0x1234 + n);
    WordVec v(n);
    for (auto& x : v) x = rng.in_range(-1000, 1000);
    EXPECT_EQ(serial.reduce_sum(v), parallel.reduce_sum(v)) << "n=" << n;
    EXPECT_EQ(serial.reduce_min(v), parallel.reduce_min(v)) << "n=" << n;
    EXPECT_EQ(serial.reduce_max(v), parallel.reduce_max(v)) << "n=" << n;
  }
}

// ---- first_oob early cut ---------------------------------------------------

TEST(FirstOobTest, GloballyFirstHitAtEveryWorkerCount) {
  Backend serial = scalar_backend(1);
  Xoshiro256 rng(0xf00b);
  for (int round = 0; round < 60; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 5000));
    const std::size_t table_size = 128;
    WordVec idx(n);
    for (auto& x : idx) x = rng.in_range(0, 127);
    // 0-3 out-of-bounds lanes at random positions (negative and too-large).
    const int oob_lanes = static_cast<int>(rng.below(4));
    for (int k = 0; k < oob_lanes; ++k) {
      const auto pos = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(n)));
      idx[pos] = (k % 2 == 0) ? 128 + rng.in_range(0, 100) : -1;
    }
    const std::size_t want = serial.first_oob(idx, table_size, nullptr);
    for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
      Backend parallel = scalar_backend(workers);
      EXPECT_EQ(parallel.first_oob(idx, table_size, nullptr), want)
          << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(FirstOobTest, EarlyCutNeverSkipsAnEarlierHitInAnotherChunk) {
  // A late chunk holds an immediate OOB lane; an early chunk holds one deep
  // inside. The late chunk's fast hit may cut other chunks' scans, but the
  // early chunk can never be cut before its own (globally first) hit.
  const std::size_t n = 50000;
  WordVec idx(n, 0);
  idx[1200] = -7;      // global first, early chunk, past the poll stride
  idx[n - 1] = 99999;  // instant hit for the last chunk
  Backend serial = scalar_backend(1);
  ASSERT_EQ(serial.first_oob(idx, 10, nullptr), 1200u);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    Backend parallel = scalar_backend(workers);
    EXPECT_EQ(parallel.first_oob(idx, 10, nullptr), 1200u)
        << "workers=" << workers;
  }
}

TEST(FirstOobTest, MaskedLanesAreExemptAtEveryWorkerCount) {
  const std::size_t n = 4096;
  WordVec idx(n, 1);
  std::vector<std::uint8_t> mask(n, 1);
  idx[100] = 500;  // masked off: not a hit
  mask[100] = 0;
  idx[3000] = 600;  // active: the hit
  Backend serial = scalar_backend(1);
  ASSERT_EQ(serial.first_oob(idx, 256, mask.data()), 3000u);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    Backend parallel = scalar_backend(workers);
    EXPECT_EQ(parallel.first_oob(idx, 256, mask.data()), 3000u);
  }
}

// ---- scatter merge ---------------------------------------------------------

TEST(ScatterMergeTest, SinglePassMatchesSerialForEveryTraversalAndWorkerCount) {
  Xoshiro256 rng(0x5ca77e2);
  for (int round = 0; round < 50; ++round) {
    const auto n = static_cast<std::size_t>(rng.in_range(1, 1200));
    const auto table_size =
        static_cast<std::size_t>(rng.in_range(1, static_cast<Word>(n)));
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) {
      x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    }
    for (auto& x : vals) x = rng.in_range(-100000, 100000);
    std::vector<std::uint8_t> mask(n);
    for (auto& b : mask) b = static_cast<std::uint8_t>(rng.below(4) != 0);
    const bool use_mask = round % 2 == 0;
    std::vector<std::size_t> order;
    for (const ScatterTraversal traversal :
         {ScatterTraversal::kForward, ScatterTraversal::kReverse,
          ScatterTraversal::kExplicit}) {
      if (traversal == ScatterTraversal::kExplicit) {
        order.resize(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        shuffle(order, rng);
      } else {
        order.clear();
      }
      WordVec want(table_size, -1);
      apply_scatter_reference(want, idx, vals,
                              use_mask ? mask.data() : nullptr, traversal,
                              order);
      for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        Backend parallel = scalar_backend(workers);
        WordVec got(table_size, -1);
        parallel.scatter(got, idx, vals, use_mask ? mask.data() : nullptr,
                         traversal, order);
        ASSERT_EQ(want, got)
            << "n=" << n << " areas=" << table_size << " workers=" << workers
            << " traversal=" << static_cast<int>(traversal);
      }
    }
  }
}

// Explicit (shuffled) traversals of serve-shard length and of bulk length
// take the same merge; 160/161 straddle the length where an explicit
// scatter once switched to a second merge.
TEST(ScatterMergeTest, ExplicitTraversalMatchesReferenceAtEveryLength) {
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetrics scoped(registry);
  Xoshiro256 rng(0xe2b1c17);
  std::uint64_t split = 0;
  const std::size_t table_size = 63;
  for (const std::size_t n : {64u, 160u, 161u, 4096u}) {
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) x = rng.in_range(0, static_cast<Word>(table_size) - 1);
    for (auto& x : vals) x = rng.in_range(-100000, 100000);
    std::vector<std::uint8_t> mask(n);
    for (auto& b : mask) b = static_cast<std::uint8_t>(rng.below(4) != 0);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    shuffle(order, rng);
    for (const bool use_mask : {false, true}) {
      const std::uint8_t* m = use_mask ? mask.data() : nullptr;
      WordVec want(table_size, -1);
      apply_scatter_reference(want, idx, vals, m, ScatterTraversal::kExplicit,
                              order);
      for (const std::size_t workers : {2u, 4u, 8u}) {
        Backend parallel = scalar_backend(workers);
        WordVec got(table_size, -1);
        parallel.scatter(got, idx, vals, m, ScatterTraversal::kExplicit,
                         order);
        ++split;
        ASSERT_EQ(want, got) << "n=" << n << " workers=" << workers
                             << " masked=" << use_mask;
      }
    }
  }
  // Grain 1: every one of these scatters is split across the pool.
  EXPECT_EQ(registry.snapshot().counters.at("pool.merge.single_pass"), split);
}

// Forward, reverse and explicit traversals all take the one merge once
// split: none of them falls back to the inline whole-span path.
TEST(ScatterMergeTest, EverySplitTraversalTakesTheSinglePassMerge) {
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetrics scoped(registry);
  const std::size_t n = 4096;
  WordVec idx(n);
  WordVec vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<Word>(i % 64);
    vals[i] = static_cast<Word>(i);
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = n - 1 - i;
  Backend parallel = scalar_backend(4);
  for (const ScatterTraversal traversal :
       {ScatterTraversal::kForward, ScatterTraversal::kReverse,
        ScatterTraversal::kExplicit}) {
    WordVec want(64, 0);
    apply_scatter_reference(want, idx, vals, nullptr, traversal, order);
    WordVec got(64, 0);
    parallel.scatter(got, idx, vals, nullptr, traversal, order);
    ASSERT_EQ(want, got) << "traversal=" << static_cast<int>(traversal);
  }
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("pool.scatter.parallel"), 3u);
  EXPECT_EQ(snap.counters.at("pool.merge.single_pass"), 3u);
  EXPECT_EQ(snap.counters.count("pool.scatter.inline"), 0u);
}

// ---- machine-level merge differential --------------------------------------

TEST(ScatterMergeMachineTest, ParallelBitIdenticalToSerialForEveryOrder) {
  for (const ScatterOrder order :
       {ScatterOrder::kForward, ScatterOrder::kReverse,
        ScatterOrder::kShuffled}) {
    MachineConfig serial_cfg;
    serial_cfg.backend = BackendKind::kSerial;
    serial_cfg.scatter_order = order;
    serial_cfg.shuffle_seed = 77;
    serial_cfg.audit = false;
    VectorMachine serial(serial_cfg);
    const std::size_t n = 3000;
    Xoshiro256 rng(0xabc + static_cast<std::uint64_t>(order));
    WordVec idx(n);
    WordVec vals(n);
    for (auto& x : idx) x = rng.in_range(0, 99);
    for (auto& x : vals) x = rng.in_range(-5000, 5000);
    WordVec want(100, 0);
    serial.scatter(want, idx, vals);
    MachineConfig cfg = serial_cfg;
    cfg.backend = BackendKind::kParallel;
    cfg.backend_threads = 4;
    cfg.backend_grain = 8;
    VectorMachine parallel(cfg);
    WordVec got(100, 0);
    parallel.scatter(got, idx, vals);
    ASSERT_EQ(want, got) << "order=" << static_cast<int>(order);
  }
}

// The scatter half of the fused scatter_gather_eq is the same split merge:
// one single-pass merge per fused instruction, and the survivor mask and
// table match the serial machine for every order.
TEST(ScatterMergeMachineTest, FusedScatterGatherEqTakesTheSinglePassMerge) {
  for (const ScatterOrder order :
       {ScatterOrder::kForward, ScatterOrder::kReverse,
        ScatterOrder::kShuffled}) {
    MachineConfig serial_cfg;
    serial_cfg.backend = BackendKind::kSerial;
    serial_cfg.scatter_order = order;
    serial_cfg.shuffle_seed = 91;
    serial_cfg.audit = false;
    serial_cfg.fuse = true;
    VectorMachine serial(serial_cfg);
    const std::size_t n = 3000;
    Xoshiro256 rng(0xf05e + static_cast<std::uint64_t>(order));
    WordVec idx(n);
    for (auto& x : idx) x = rng.in_range(0, 99);
    // Distinct per-lane values: a lane's readback matches only its own
    // write, so the mask names exactly one survivor per written address.
    WordVec vals(n);
    for (std::size_t i = 0; i < n; ++i) vals[i] = static_cast<Word>(i + 1);
    WordVec want(100, 0);
    const Mask want_mask = serial.scatter_gather_eq(want, idx, vals);
    MachineConfig cfg = serial_cfg;
    cfg.backend = BackendKind::kParallel;
    cfg.backend_threads = 4;
    cfg.backend_grain = 8;
    VectorMachine parallel(cfg);
    telemetry::MetricsRegistry registry;
    const telemetry::ScopedMetrics scoped(registry);
    WordVec got(100, 0);
    const Mask got_mask = parallel.scatter_gather_eq(got, idx, vals);
    ASSERT_EQ(want, got) << "order=" << static_cast<int>(order);
    ASSERT_TRUE(std::equal(want_mask.begin(), want_mask.end(),
                           got_mask.begin(), got_mask.end()))
        << "order=" << static_cast<int>(order);
    EXPECT_EQ(registry.snapshot().counters.at("pool.merge.single_pass"), 1u)
        << "order=" << static_cast<int>(order);
  }
}

// ---- run_affine ------------------------------------------------------------

TEST(RunAffineTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t tasks : {1u, 2u, 3u, 4u}) {
    std::vector<int> hits(tasks, 0);
    pool.run_affine(tasks, [&](std::size_t i) { hits[i] += 1; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(RunAffineTest, RequiresOneWorkerPerTask) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_affine(3, [](std::size_t) {}), PreconditionError);
}

TEST(RunAffineTest, SameTaskCountPinsTasksToTheSameThreads) {
  // The affinity property: the task -> worker map is a pure function of the
  // task index, so consecutive same-shape jobs land each task on the same
  // thread (and the last task on the caller).
  ThreadPool pool(4);
  const std::size_t tasks = 4;
  std::vector<std::thread::id> first(tasks);
  pool.run_affine(tasks,
                  [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
  EXPECT_EQ(first[tasks - 1], std::this_thread::get_id());
  for (int round = 0; round < 20; ++round) {
    std::vector<std::thread::id> again(tasks);
    pool.run_affine(tasks, [&](std::size_t i) {
      again[i] = std::this_thread::get_id();
    });
    ASSERT_EQ(first, again) << "affinity broke on round " << round;
  }
}

TEST(RunAffineTest, RethrowsLowestTaskException) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.run_affine(4, [&](std::size_t i) {
        if (i >= 1) throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
  }
}

// ---- algorithm digests across backends ------------------------------------
//
// Address-calculation sort, radix sort and FOL* compose elementwise chains
// (spreading-function hash, probe bump+select, identifier generation,
// shift-mask pair, radix digit extraction, tuple-survival predicate)
// between their memory ops. Running each algorithm under audit yields the
// reference digest (ScatterCheck cross-checks every scatter along the way);
// serial must reproduce it, every other backend must reproduce serial
// bit-for-bit, and all backends must agree with serial on the chime
// (per-class instruction/element counts).

VectorMachine backend_machine(BackendKind kind, std::size_t threads) {
  MachineConfig cfg;
  cfg.audit = false;
  cfg.backend = kind;
  cfg.backend_threads = threads;
  cfg.backend_grain = 8;
  return VectorMachine(cfg);
}

WordVec address_calc_algo(VectorMachine& m) {
  Xoshiro256 rng(0xadca1c);
  const Word vmax = Word{1} << 20;
  WordVec data(777);
  for (auto& x : data) x = rng.in_range(0, vmax - 1);
  sorting::address_calc_sort_vector(m, data, vmax);
  return data;
}

WordVec radix_algo(VectorMachine& m) {
  Xoshiro256 rng(0x2ad1);
  WordVec data(1000);
  for (auto& x : data) x = rng.in_range(0, Word{1} << 18);
  sorting::radix_sort_vector(m, data, /*bits_per_digit=*/6);
  return data;
}

WordVec fol_star_algo(VectorMachine& m) {
  Xoshiro256 rng(0x57a9);
  const std::size_t n = 600;
  std::vector<WordVec> lanes(2, WordVec(n));
  for (auto& lane : lanes) {
    for (auto& x : lane) x = rng.in_range(0, 149);
  }
  WordVec work(160, 0);
  const fol::StarDecomposition dec = fol::fol_star_decompose(m, lanes, work);
  WordVec digest{static_cast<Word>(dec.sets.size()),
                 static_cast<Word>(dec.scalar_rescues),
                 static_cast<Word>(dec.forced_singletons)};
  for (const auto& set : dec.sets) {
    digest.push_back(static_cast<Word>(set.size()));
    for (const std::size_t p : set) digest.push_back(static_cast<Word>(p));
  }
  digest.insert(digest.end(), work.begin(), work.end());
  return digest;
}

void expect_same_chime(const VectorMachine& a, const VectorMachine& b) {
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    const auto c = static_cast<OpClass>(i);
    EXPECT_EQ(a.cost().instructions(c), b.cost().instructions(c))
        << op_class_name(c);
    EXPECT_EQ(a.cost().elements(c), b.cost().elements(c)) << op_class_name(c);
  }
}

TEST(AlgorithmDigestTest, AuditReferenceMatchesEveryBackend) {
  const struct {
    const char* name;
    WordVec (*fn)(VectorMachine&);
  } algos[] = {
      {"address_calc", address_calc_algo},
      {"radix", radix_algo},
      {"fol_star", fol_star_algo},
  };
  for (const auto& algo : algos) {
    // Reference: the audited machine cross-checks every scatter.
    MachineConfig audit_cfg;
    audit_cfg.audit = true;
    VectorMachine audit_m(audit_cfg);
    const WordVec want = algo.fn(audit_m);

    VectorMachine serial = backend_machine(BackendKind::kSerial, 1);
    const WordVec serial_got = algo.fn(serial);
    EXPECT_EQ(want, serial_got) << algo.name;

    for (const BackendKind kind : {BackendKind::kParallel, BackendKind::kSimd,
                                   BackendKind::kParallelSimd}) {
      VectorMachine m = backend_machine(kind, 4);
      const WordVec got = algo.fn(m);
      EXPECT_EQ(serial_got, got)
          << algo.name << " kind=" << static_cast<int>(kind);
      expect_same_chime(serial, m);
    }
  }
}

// ---- elementwise chains through reused buffers -----------------------------
//
// Every instruction dispatches when it is called. A chain of *_into calls
// through named reused buffers must therefore read each earlier result,
// agree bit-for-bit (and on the chime) across backends, worker counts and
// audit, and leave no deferred-dispatch ledger behind.

/// An elementwise round through reused buffers, ending with a lane-count
/// change; returns every buffer's final contents.
WordVec chain_script(VectorMachine& m, const WordVec& a, const WordVec& b) {
  WordVec r1;
  WordVec r2;
  const WordVec head(a.begin(),
                     a.begin() + static_cast<std::ptrdiff_t>(a.size() / 2));
  m.add_into(r1, a, b);
  m.add_scalar_into(r2, r1, 5);
  const Mask lt = m.lt(r2, b);
  const WordVec sel = m.select(lt, r1, r2);
  m.mod_scalar_into(r1, sel, 97);
  m.add_scalar_into(r2, head, 3);
  WordVec digest;
  digest.insert(digest.end(), r1.begin(), r1.end());
  digest.insert(digest.end(), r2.begin(), r2.end());
  digest.insert(digest.end(), sel.begin(), sel.end());
  for (const auto bit : lt) digest.push_back(bit);
  return digest;
}

TEST(ElementwiseChainTest, ResultsAndChimesIdenticalAcrossBackends) {
  Xoshiro256 rng(0xba7c4);
  for (const std::size_t n : {2u, 64u, 1000u, 4099u}) {
    WordVec a(n);
    WordVec b(n);
    for (auto& x : a) x = rng.in_range(-100000, 100000);
    for (auto& x : b) x = rng.in_range(-100000, 100000);
    VectorMachine serial = backend_machine(BackendKind::kSerial, 1);
    const WordVec want = chain_script(serial, a, b);
    for (const BackendKind kind : {BackendKind::kParallel, BackendKind::kSimd,
                                   BackendKind::kParallelSimd}) {
      for (const std::size_t threads : {1u, 4u}) {
        VectorMachine m = backend_machine(kind, threads);
        ASSERT_EQ(want, chain_script(m, a, b))
            << "n=" << n << " kind=" << static_cast<int>(kind)
            << " threads=" << threads;
        expect_same_chime(serial, m);
      }
    }
  }
}

TEST(ElementwiseChainTest, ReductionReadsThePrecedingResult) {
  VectorMachine m = backend_machine(BackendKind::kParallel, 4);
  const WordVec a = m.iota(1000, 0, 1);
  WordVec r1;
  m.add_scalar_into(r1, a, 1);
  EXPECT_EQ(m.reduce_sum(r1), static_cast<Word>(1000) * 999 / 2 + 1000);
}

TEST(ElementwiseChainTest, EachResultIsReadableBeforeTheNextInstruction) {
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetrics scoped(registry);
  {
    VectorMachine m = backend_machine(BackendKind::kParallel, 4);
    const WordVec a = m.iota(512, 0, 1);
    WordVec r1;
    WordVec r2;
    WordVec r3;
    m.add_scalar_into(r1, a, 1);
    EXPECT_EQ(r1[511], 512);
    m.add_scalar_into(r2, r1, 1);
    EXPECT_EQ(r2[511], 513);
    m.add_into(r3, r1, r2);
    EXPECT_EQ(r3[511], 1025);
  }
  // One arithmetic instruction per call (iota included), and no counter of
  // deferred or batched dispatch.
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  ASSERT_TRUE(snap.counters.contains("vm.op.v.arith.instructions"));
  EXPECT_EQ(snap.counters.at("vm.op.v.arith.instructions"), 4u);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.find("batch"), std::string::npos) << name << "=" << value;
  }
}

TEST(ElementwiseChainTest, AuditMachineMatchesSerialChain) {
  Xoshiro256 rng(0xa0d17);
  const std::size_t n = 256;
  WordVec a(n);
  WordVec b(n);
  for (auto& x : a) x = rng.in_range(-1000, 1000);
  for (auto& x : b) x = rng.in_range(-1000, 1000);
  MachineConfig audit_cfg;
  audit_cfg.audit = true;
  VectorMachine audit_m(audit_cfg);
  VectorMachine serial = backend_machine(BackendKind::kSerial, 1);
  EXPECT_EQ(chain_script(audit_m, a, b), chain_script(serial, a, b));
  expect_same_chime(audit_m, serial);
}

}  // namespace
}  // namespace folvec::vm

// Unit tests for the PR's vm-layer building blocks: the Mask popcount
// cache, the BufferPool free lists, and the fused scatter_gather_eq /
// partition semantics (including the masked variant and the chime model's
// fused-vs-chained accounting).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "support/prng.h"
#include "support/status.h"
#include "vm/buffer_pool.h"
#include "vm/cost_model.h"
#include "vm/machine.h"

namespace folvec::vm {
namespace {

/// The fused-op unit tests scatter duplicate addresses without declaring
/// conflict windows; run them with auditing off regardless of FOLVEC_AUDIT.
VectorMachine make_machine(bool fuse = true) {
  MachineConfig cfg;
  cfg.audit = false;
  cfg.fuse = fuse;
  return VectorMachine(cfg);
}

// ---- Mask popcount cache ----------------------------------------------------

TEST(MaskTest, ConstructorsRecordKnownCounts) {
  const Mask zeros(5);
  EXPECT_TRUE(zeros.has_popcount());
  EXPECT_EQ(zeros.popcount(), 0u);

  const Mask ones(4, 1);
  EXPECT_TRUE(ones.has_popcount());
  EXPECT_EQ(ones.popcount(), 4u);

  const Mask mixed{1, 0, 1, 1, 0};
  EXPECT_TRUE(mixed.has_popcount());
  EXPECT_EQ(mixed.popcount(), 3u);
}

TEST(MaskTest, NonConstAccessInvalidatesAndLazyScanRecovers) {
  Mask m{1, 0, 1};
  EXPECT_TRUE(m.has_popcount());
  m[1] = 1;  // non-const operator[] must assume a write
  EXPECT_FALSE(m.has_popcount());
  EXPECT_EQ(m.popcount(), 3u);  // lazy scan...
  EXPECT_TRUE(m.has_popcount());  // ...cached afterwards
  *m.data() = 0;
  EXPECT_FALSE(m.has_popcount());
  EXPECT_EQ(m.popcount(), 2u);
}

TEST(MaskTest, ConstReadsPreserveTheCache) {
  Mask m{1, 0, 1};
  ASSERT_TRUE(m.has_popcount());
  (void)m.test(0);       // test() is the const read for non-const masks
  (void)m.size();
  const Mask& cm = m;
  (void)cm[1];
  (void)cm.data();
  for (const std::uint8_t b : cm) (void)b;
  EXPECT_TRUE(m.has_popcount());
}

TEST(MaskTest, ResizeKeepsCountOnGrowDropsOnShrink) {
  Mask m{1, 1, 0};
  m.resize(6);  // grown lanes are false
  EXPECT_TRUE(m.has_popcount());
  EXPECT_EQ(m.popcount(), 2u);
  m.resize(2);  // may have dropped a true lane
  EXPECT_FALSE(m.has_popcount());
  EXPECT_EQ(m.popcount(), 2u);
  m.resize(1);
  EXPECT_EQ(m.popcount(), 1u);
}

TEST(MaskTest, SetPopcountPublishesThroughConstRefs) {
  Mask m;
  m.resize(4);
  *m.data() = 1;
  const Mask& cm = m;
  EXPECT_FALSE(cm.has_popcount());
  cm.set_popcount(1);
  EXPECT_TRUE(cm.has_popcount());
  EXPECT_EQ(cm.popcount(), 1u);
}

TEST(MaskTest, CountTrueCachesAndStillChargesItsReduce) {
  VectorMachine m;
  Mask mask{1, 0, 1, 1};
  mask[0] = 1;  // invalidate so count_true has to scan once
  ASSERT_FALSE(mask.has_popcount());
  const std::uint64_t before =
      m.cost().instructions(OpClass::kVectorReduce);
  EXPECT_EQ(m.count_true(mask), 3u);
  EXPECT_TRUE(mask.has_popcount());
  // Second call skips the host scan but the modeled charge repeats.
  EXPECT_EQ(m.count_true(mask), 3u);
  EXPECT_EQ(m.cost().instructions(OpClass::kVectorReduce), before + 2);
}

TEST(MaskTest, PopcountCacheFuzzAgainstReferenceScan) {
  // Every non-const access path must leave popcount() equal to a manual
  // scan; a stale cache here silently corrupts every fused survivor count
  // downstream. Drive a random operation mix against a reference vector.
  Xoshiro256 rng(0xf022edULL);
  Mask mask(16, 1);
  std::vector<std::uint8_t> ref(16, 1);
  const auto manual = [&ref] {
    std::size_t n = 0;
    for (std::uint8_t b : ref) n += b != 0 ? 1u : 0u;
    return n;
  };
  for (int step = 0; step < 4000; ++step) {
    switch (rng.in_range(0, 7)) {
      case 0:  // non-const operator[] write
        if (!ref.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.in_range(0, static_cast<std::int64_t>(ref.size()) - 1));
          const auto v = static_cast<std::uint8_t>(rng.in_range(0, 1));
          mask[i] = v;
          ref[i] = v;
        }
        break;
      case 1:  // non-const data() write
        if (!ref.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.in_range(0, static_cast<std::int64_t>(ref.size()) - 1));
          const auto v = static_cast<std::uint8_t>(rng.in_range(0, 1));
          mask.data()[i] = v;
          ref[i] = v;
        }
        break;
      case 2:  // non-const iterator write sweep
        for (auto it = mask.begin(); it != mask.end(); ++it) {
          *it = static_cast<std::uint8_t>(rng.in_range(0, 1));
        }
        for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = mask.test(i);
        break;
      case 3: {  // resize (grow keeps the count, shrink drops it)
        const auto n = static_cast<std::size_t>(rng.in_range(0, 48));
        mask.resize(n);
        ref.resize(n, 0);
        break;
      }
      case 4:
        mask.clear();
        ref.clear();
        break;
      case 5:  // trusted producer publishing a by-product count
        mask.set_popcount(manual());
        break;
      case 6: {  // const reads must not perturb anything
        std::size_t seen = 0;
        for (std::size_t i = 0; i < mask.size(); ++i) {
          seen += mask.test(i) != 0 ? 1u : 0u;
        }
        EXPECT_EQ(seen, manual());
        break;
      }
      case 7: {  // fresh construction with a known count
        const auto n = static_cast<std::size_t>(rng.in_range(0, 32));
        const auto v = static_cast<std::uint8_t>(rng.in_range(0, 1));
        mask = Mask(n, v);
        ref.assign(n, v);
        EXPECT_TRUE(mask.has_popcount());
        break;
      }
    }
    ASSERT_EQ(mask.popcount(), manual()) << "after op at step " << step;
    ASSERT_TRUE(mask.has_popcount());
    ASSERT_EQ(mask.size(), ref.size());
  }
}

// ---- BufferPool -------------------------------------------------------------

TEST(BufferPoolTest, BucketOfBoundaries) {
  // bucket_of is floor(log2(capacity)) with 0 mapped to bucket 0; the
  // power-of-two edges are exactly where an off-by-one would misplace a
  // vector into a bucket acquire() never scans.
  EXPECT_EQ(BufferPool::bucket_of(0), 0u);
  EXPECT_EQ(BufferPool::bucket_of(1), 0u);
  EXPECT_EQ(BufferPool::bucket_of(2), 1u);
  EXPECT_EQ(BufferPool::bucket_of(3), 1u);
  EXPECT_EQ(BufferPool::bucket_of(4), 2u);
  EXPECT_EQ(BufferPool::bucket_of(7), 2u);
  EXPECT_EQ(BufferPool::bucket_of(8), 3u);
  EXPECT_EQ(BufferPool::bucket_of((std::size_t{1} << 16) - 1), 15u);
  EXPECT_EQ(BufferPool::bucket_of(std::size_t{1} << 16), 16u);
  EXPECT_EQ(BufferPool::bucket_of((std::size_t{1} << 16) + 1), 16u);
  EXPECT_EQ(BufferPool::bucket_of(static_cast<std::size_t>(-1)), 63u);
}

TEST(BufferPoolTest, UndersizedSameBucketCandidateIsSkipped) {
  // Capacity 6 parks in bucket 2 ([4, 8)); acquire(7) scans that bucket but
  // must reject the too-small candidate and allocate fresh instead of
  // handing back six words for a seven-word request.
  BufferPool pool;
  BufferPool::WordVec small;
  small.reserve(6);
  pool.release(std::move(small));
  BufferPool::WordVec v = pool.acquire(7);
  EXPECT_EQ(v.size(), 7u);
  EXPECT_GE(v.capacity(), 7u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(BufferPoolTest, WordLimitThrowsRecoverableAndReleaseRestoresHeadroom) {
  BufferPool pool;
  pool.set_limit_words(16);
  BufferPool::WordVec a = pool.acquire(8);
  EXPECT_GE(pool.stats().outstanding_words, 8u);
  try {
    BufferPool::WordVec b = pool.acquire(16);  // 8 + 16 > 16
    FAIL() << "capped acquire should throw";
  } catch (const RecoverableError& e) {
    EXPECT_EQ(e.code(), StatusCode::kPoolExhausted);
  }
  // The failed acquire left accounting intact; releasing the outstanding
  // vector restores enough headroom for the same request to succeed.
  pool.release(std::move(a));
  BufferPool::WordVec b = pool.acquire(16);
  EXPECT_EQ(b.size(), 16u);
  pool.set_limit_words(0);  // unlimited again
  BufferPool::WordVec c = pool.acquire(4096);
  EXPECT_EQ(c.size(), 4096u);
}


TEST(BufferPoolTest, AcquireAfterReleaseReusesStorage) {
  BufferPool pool;
  BufferPool::WordVec v = pool.acquire(100);
  EXPECT_EQ(v.size(), 100u);
  const auto* raw = v.data();
  pool.release(std::move(v));
  BufferPool::WordVec w = pool.acquire(80);  // same bucket, capacity fits
  EXPECT_EQ(w.size(), 80u);
  EXPECT_EQ(w.data(), raw);
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, AcquireProbesTheNextBucketUp) {
  BufferPool pool;
  BufferPool::WordVec big = pool.acquire(200);  // capacity >= 200
  pool.release(std::move(big));
  // 140 needs bucket ceil(log2(140)) = 8; the released capacity sits in
  // bucket floor(log2(cap)) which is within one step up.
  BufferPool::WordVec v = pool.acquire(140);
  EXPECT_EQ(v.size(), 140u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, BucketCapAndHeldWordAccounting) {
  BufferPool pool;
  std::vector<BufferPool::WordVec> vs;
  for (std::size_t i = 0; i < BufferPool::kMaxPerBucket + 2; ++i) {
    vs.push_back(pool.acquire(64));
  }
  for (auto& v : vs) pool.release(std::move(v));
  EXPECT_EQ(pool.stats().releases, BufferPool::kMaxPerBucket);
  EXPECT_EQ(pool.stats().discards, 2u);
  EXPECT_GT(pool.stats().held_words, 0u);
  EXPECT_EQ(pool.stats().peak_held_words, pool.stats().held_words);
  pool.trim();
  EXPECT_EQ(pool.stats().held_words, 0u);
  EXPECT_GT(pool.stats().peak_held_words, 0u);
}

TEST(BufferPoolTest, ZeroSizedAcquireIsSafe) {
  BufferPool pool;
  BufferPool::WordVec v = pool.acquire(0);
  EXPECT_TRUE(v.empty());
  pool.release(std::move(v));  // capacity 0: discarded, not bucketed
  EXPECT_EQ(pool.stats().discards, 1u);
}

TEST(BufferPoolTest, PooledVecReleasesOnDestruction) {
  BufferPool pool;
  {
    PooledVec v(pool, 32);
    EXPECT_EQ(v->size(), 32u);
    (*v)[0] = 7;
  }
  EXPECT_EQ(pool.stats().releases, 1u);
  const PooledVec w(pool, 16);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, SteadyStateFol1RoundsHitThePool) {
  // Two decompositions on one machine: the second should be served almost
  // entirely from buffers the first released.
  VectorMachine m;
  const WordVec idx{3, 1, 3, 0, 2, 1, 3, 0};
  WordVec work(5, 0);
  {
    WordVec v(idx.begin(), idx.end());
    (void)m.gather(work, v);  // warm nothing; just exercise the machine
  }
  const auto run = [&] {
    WordVec v(idx.begin(), idx.end());
    // fol1 lives in another library; emulate its pooled round here.
    PooledVec a(m.pool(), v.size());
    PooledVec b(m.pool(), v.size());
    m.copy_into(*a, v);
    m.iota_into(*b, v.size());
  };
  run();
  const std::uint64_t misses_after_first = m.pool().stats().misses;
  run();
  EXPECT_EQ(m.pool().stats().misses, misses_after_first);
  EXPECT_GT(m.pool().stats().hits, 0u);
}

// ---- fused ops: semantics ---------------------------------------------------

TEST(FusedOpsTest, ScatterGatherEqMatchesOverwriteAndCheck) {
  VectorMachine m = make_machine();
  WordVec table(8, -1);
  const WordVec idx{1, 3, 1, 5};
  const WordVec vals{10, 20, 30, 40};
  const Mask survived = m.scatter_gather_eq(table, idx, vals);
  ASSERT_EQ(survived.size(), 4u);
  EXPECT_TRUE(survived.has_popcount());
  // Address 1 is contested: exactly one of lanes {0, 2} survives; lanes 1
  // and 3 are uncontested and must survive.
  EXPECT_EQ(survived.popcount(), 3u);
  EXPECT_EQ(survived.test(1), 1);
  EXPECT_EQ(survived.test(3), 1);
  EXPECT_NE(survived.test(0), survived.test(2));
  EXPECT_EQ(table[3], 20);
  EXPECT_EQ(table[5], 40);
  EXPECT_TRUE(table[1] == 10 || table[1] == 30);
}

TEST(FusedOpsTest, MaskedVariantChecksOnlyActiveLanes) {
  VectorMachine m = make_machine();
  WordVec table(8, -1);
  const WordVec idx{2, 2, 4};
  const WordVec vals{7, 8, 9};
  const Mask active{1, 0, 1};
  const Mask survived = m.scatter_gather_eq_masked(table, idx, vals, active);
  // Lane 1 is inactive: it stores nothing and its result lane is forced
  // false, exactly like mask_and(eq, active) in the composition.
  EXPECT_EQ(survived.test(0), 1);
  EXPECT_EQ(survived.test(1), 0);
  EXPECT_EQ(survived.test(2), 1);
  EXPECT_EQ(table[2], 7);
  EXPECT_EQ(table[4], 9);
}

TEST(FusedOpsTest, PartitionSplitsKeptAndRejectedInLaneOrder) {
  VectorMachine m = make_machine();
  const WordVec v{10, 11, 12, 13, 14};
  const Mask mask{1, 0, 0, 1, 1};
  const auto [kept, rejected] = m.partition(v, mask);
  EXPECT_EQ(kept, (WordVec{10, 13, 14}));
  EXPECT_EQ(rejected, (WordVec{11, 12}));

  WordVec k;
  WordVec r;
  EXPECT_EQ(m.partition_into(k, r, v, mask), 3u);
  EXPECT_EQ(k, kept);
  EXPECT_EQ(r, rejected);
}

TEST(FusedOpsTest, PartitionMatchesCompressComposition) {
  VectorMachine fused = make_machine(true);
  VectorMachine unfused = make_machine(false);
  const WordVec v{5, -2, 9, 9, 0, 3, -7};
  const Mask mask{0, 1, 1, 0, 1, 0, 0};
  const auto [fk, fr] = fused.partition(v, mask);
  const auto [uk, ur] = unfused.partition(v, mask);
  EXPECT_EQ(fk, uk);
  EXPECT_EQ(fr, ur);
}

// ---- fused ops: chime accounting --------------------------------------------

TEST(FusedChimeTest, FusedOpsChargeTheirOwnClasses) {
  VectorMachine m = make_machine();
  WordVec table(8, -1);
  const WordVec idx{1, 2, 3};
  const WordVec vals{4, 5, 6};
  (void)m.scatter_gather_eq(table, idx, vals);
  const Mask mask{1, 0, 1};
  (void)m.partition(vals, mask);
  const CostAccumulator& c = m.cost();
  EXPECT_EQ(c.instructions(OpClass::kVectorScatterGatherEq), 1u);
  EXPECT_EQ(c.elements(OpClass::kVectorScatterGatherEq), 3u);
  EXPECT_EQ(c.instructions(OpClass::kVectorPartition), 1u);
  EXPECT_EQ(c.instructions(OpClass::kVectorScatter), 0u);
  EXPECT_EQ(c.instructions(OpClass::kVectorGather), 0u);
  EXPECT_EQ(c.instructions(OpClass::kVectorCompress), 0u);
}

TEST(FusedChimeTest, FusedCostsUndercutTheChainedComposition) {
  // The whole point of fusing: at any non-trivial length, one sge chime
  // beats scatter + gather + compare, and one partition beats
  // compress + mask_not + compress.
  const CostParams p = CostParams::s810_like();
  const std::size_t n = 1u << 20;
  const double sge = p.cost(OpClass::kVectorScatterGatherEq, n);
  const double chained = p.cost(OpClass::kVectorScatter, n) +
                         p.cost(OpClass::kVectorGather, n) +
                         p.cost(OpClass::kVectorCompare, n);
  EXPECT_LT(sge, chained);

  const double part = p.cost(OpClass::kVectorPartition, n);
  const double split = 2 * p.cost(OpClass::kVectorCompress, n) +
                       p.cost(OpClass::kVectorMask, n);
  EXPECT_LT(part, split);

  // The FOL1 round itself: fused sge + 2 partitions vs the old four-pass
  // chain, >= 25% fewer chimes at 1M lanes (the bench asserts this on the
  // real workload too).
  const double fused_round = sge + 2 * part;
  const double unfused_round = chained + p.cost(OpClass::kVectorMask, n) +
                               3 * p.cost(OpClass::kVectorCompress, n);
  EXPECT_LT(fused_round, 0.75 * unfused_round);
}

}  // namespace
}  // namespace folvec::vm

// Cross-backend digests of whole algorithms and elementwise chains, plus
// the kernel tables' bounds scan. The oracle is the serial machine (the
// scalar reference table), and for the algorithms the audited machine,
// whose ScatterCheck cross-checks every scatter.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fol/fol_star.h"
#include "sorting/address_calc.h"
#include "sorting/radix.h"
#include "support/prng.h"
#include "telemetry/metrics.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {
namespace {

/// The scalar table plus every ISA table the host supports.
std::vector<const SimdKernels*> supported_tables() {
  std::vector<const SimdKernels*> tables{&simd_kernels_scalar()};
  for (const SimdLevel level :
       {SimdLevel::kNeon, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_supported(level)) {
      tables.push_back(&simd_kernels_for(level));
    }
  }
  return tables;
}

// ---- first_oob -------------------------------------------------------------

TEST(FirstOobTest, LowestOffendingLaneOnEveryTable) {
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
    std::size_t want = kNoLane;
    for (std::size_t i = 0; i < n; ++i) {
      if (idx[i] < 0 || idx[i] >= static_cast<Word>(table_size)) {
        want = i;
        break;
      }
    }
    for (const SimdKernels* k : supported_tables()) {
      EXPECT_EQ(k->first_oob(idx.data(), n, table_size, nullptr), want)
          << "n=" << n << " table=" << k->name;
    }
  }
}

TEST(FirstOobTest, MaskedLanesAreExempt) {
  const std::size_t n = 4096;
  WordVec idx(n, 1);
  std::vector<std::uint8_t> mask(n, 1);
  idx[100] = 500;  // masked off: not a hit
  mask[100] = 0;
  idx[3000] = 600;  // active: the hit
  for (const SimdKernels* k : supported_tables()) {
    EXPECT_EQ(k->first_oob(idx.data(), n, 256, mask.data()), 3000u)
        << k->name;
  }
}

// ---- algorithm digests across backends ------------------------------------
//
// Address-calculation sort, radix sort and FOL* compose elementwise chains
// (spreading-function hash, probe bump+select, identifier generation,
// shift-mask pair, radix digit extraction, tuple-survival predicate)
// between their memory ops. Running each algorithm under audit yields the
// reference digest (ScatterCheck cross-checks every scatter along the way);
// serial must reproduce it, the simd machine must reproduce serial
// bit-for-bit, and both must agree on the chime (per-class
// instruction/element counts).

VectorMachine backend_machine(BackendKind kind) {
  MachineConfig cfg;
  cfg.audit = false;
  cfg.backend = kind;
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

    VectorMachine serial = backend_machine(BackendKind::kSerial);
    const WordVec serial_got = algo.fn(serial);
    EXPECT_EQ(want, serial_got) << algo.name;

    VectorMachine simd = backend_machine(BackendKind::kSimd);
    EXPECT_EQ(serial_got, algo.fn(simd)) << algo.name;
    expect_same_chime(serial, simd);
  }
}

// ---- elementwise chains through reused buffers -----------------------------
//
// Every instruction dispatches when it is called. A chain of *_into calls
// through named reused buffers must therefore read each earlier result,
// agree bit-for-bit (and on the chime) across backends and audit, and leave
// no deferred-dispatch ledger behind.

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
    VectorMachine serial = backend_machine(BackendKind::kSerial);
    const WordVec want = chain_script(serial, a, b);
    VectorMachine simd = backend_machine(BackendKind::kSimd);
    ASSERT_EQ(want, chain_script(simd, a, b)) << "n=" << n;
    expect_same_chime(serial, simd);
  }
}

TEST(ElementwiseChainTest, ReductionReadsThePrecedingResult) {
  VectorMachine m = backend_machine(BackendKind::kSimd);
  const WordVec a = m.iota(1000, 0, 1);
  WordVec r1;
  m.add_scalar_into(r1, a, 1);
  EXPECT_EQ(m.reduce_sum(r1), static_cast<Word>(1000) * 999 / 2 + 1000);
}

TEST(ElementwiseChainTest, EachResultIsReadableBeforeTheNextInstruction) {
  telemetry::MetricsRegistry registry;
  const telemetry::ScopedMetrics scoped(registry);
  {
    VectorMachine m = backend_machine(BackendKind::kSimd);
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
  VectorMachine serial = backend_machine(BackendKind::kSerial);
  EXPECT_EQ(chain_script(audit_m, a, b), chain_script(serial, a, b));
  expect_same_chime(audit_m, serial);
}

}  // namespace
}  // namespace folvec::vm

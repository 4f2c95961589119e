// Serial vs SIMD execution backend on the paper's core workloads: FOL1
// decomposition (dense and rare sharing), FOL* decomposition, multiple
// hashing (Figure 8), and address-calculation sorting (Figure 12), at N up
// to 2^20.
//
// Every workload runs a fused serial, a fused simd, and an unfused serial
// (MachineConfig::fuse = false) configuration. Inputs are generated ONCE
// per (workload, N) cell and shared by every backend column, so all three
// configurations consume bit-identical buffers — no column re-draws from
// its own PRNG. The table reports, side by side:
//
//   * the fused and unfused chime-model times (modeled S-810 microseconds)
//     and the fused-over-unfused chime cut — the headline number of the
//     fused-kernel work: the FOL1 hot round drops from four memory passes
//     to one, which the chime model prices at a >= 25% reduction (asserted
//     for the FOL1 workloads at N=2^20);
//   * measured host wall-clock per backend plus the unfused serial wall,
//     and the simd-over-serial wall acceleration. Wall ratios are
//     reported, never asserted: host timing is too noisy to gate on.
//
// Every run is also differentially checked: the simd digest (outputs +
// final memory images) must be bit-identical to the serial one, their
// chime streams identical, and the unfused digest bit-identical to the
// fused one — the bench doubles as a million-element backend-equivalence
// test.
//
// A second table compares audit modes on the proven-safe fol1_distinct
// workload: audit off, full per-lane ScatterCheck, and the static-analysis
// elided auditor (MachineConfig::analysis + audit_elide). Asserted: >= 80%
// of scatter-class ops proven safe, identical outputs and chime streams
// across modes, and the elided wall beating the full audit at N=2^20.
//
// The third table is the hardware-vs-FOL1 ablation (fol1_hw_conflict), the
// result the SIMD backend exists for. The paper's FOL1 method decomposes a
// shared index vector into parallel-processable sets with O(rounds) passes
// of software scatter/gather/compare, because the S-810 had no
// conflict-detection hardware. AVX-512 CD (vpconflictd, lowered as the
// conflict_rank kernel) answers the same question in one pass: every lane
// gets its occurrence number among earlier lanes addressing the same area,
// and rank class r IS minimal parallel set S_{r+1}. The table times both on
// the same dense-sharing input as the fol1 rows, cross-checks the hardware
// ranks against the scalar reference AND against the FOL1 decomposition
// (same number of sets, same set sizes — both are minimal by Theorem 5),
// and asserts the one-pass hardware rank beats the multi-round software
// protocol's wall clock. On hosts without the AVX-512 CD kernel the scalar
// single-pass rank stands in (reported via the hw_conflict_native config),
// so the ablation still runs on the scalar-forced CI leg.
//
// The size list defaults to {14, 17, 20} (override with
// FOLVEC_BENCH_SIZES_LOG2, a comma-separated log2 list — the CI trend leg
// passes "17"). The simd column honors FOLVEC_SIMD_LEVEL forcing like any
// other machine.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "bench_harness/report.h"
#include "fol/fol1.h"
#include "fol/fol_star.h"
#include "hashing/open_table.h"
#include "sorting/address_calc.h"
#include "support/env.h"
#include "support/prng.h"
#include "support/require.h"
#include "support/table_printer.h"
#include "vm/machine.h"
#include "vm/simd_backend.h"

namespace {

using folvec::vm::BackendKind;
using folvec::vm::MachineConfig;
using folvec::vm::SimdKernels;
using folvec::vm::SimdLevel;
using folvec::vm::VectorMachine;
using folvec::vm::Word;
using folvec::vm::WordVec;

struct Sample {
  double chime_us = 0;
  double wall_s = 0;
  WordVec digest;
};

/// One audit-mode run of the proven-safe FOL1 workload, with the analyzer's
/// elision metrics when static analysis was attached.
struct AuditSample {
  double chime_us = 0;
  double wall_s = 0;
  WordVec digest;
  std::uint64_t scatter_ops = 0;
  std::uint64_t scatter_safe = 0;
  std::uint64_t elided = 0;
  std::uint64_t checked = 0;
};

enum class AuditMode { kOff, kFull, kElide };

/// Lane counts to run, as log2 sizes. FOLVEC_BENCH_SIZES_LOG2 overrides the
/// default {14, 17, 20} with a comma-separated list (the CI trend leg
/// passes "17" to keep the runner under budget); out-of-range tokens are
/// ignored, and an all-invalid override falls back to the default.
std::vector<int> bench_sizes() {
  std::vector<int> sizes;
  if (const auto env = folvec::env_value("FOLVEC_BENCH_SIZES_LOG2")) {
    std::stringstream ss(*env);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const long v = std::strtol(tok.c_str(), nullptr, 10);
      if (v >= 1 && v <= 30) sizes.push_back(static_cast<int>(v));
    }
  }
  if (sizes.empty()) sizes = {14, 17, 20};
  return sizes;
}

/// Pre-generated input for one (workload, N) cell, built once and consumed
/// by every backend column of that cell. Bodies copy the mutable pieces
/// (`work`, the sort data) before running, so the shared buffers stay
/// pristine across columns and reps.
struct WorkloadInput {
  WordVec idx;                 // index / key / unsorted-data vector
  WordVec work;                // work-area or hash-table image
  std::vector<WordVec> lanes;  // FOL* index vectors
  Word vmax = 0;               // sorting value bound
};

template <typename Body>
Sample run_backend(BackendKind kind, bool fuse,
                   const folvec::vm::CostParams& params, const Body& body) {
  MachineConfig cfg;
  cfg.audit = false;  // time the workload, not the auditor's bookkeeping
  cfg.backend = kind;
  cfg.fuse = fuse;
  // cfg.simd_level stays at its default (kAuto unless FOLVEC_SIMD_LEVEL
  // forces a level), so the simd column reports whatever the dispatcher
  // actually picked for this host.
  VectorMachine m(cfg);
  Sample s;
  s.digest = body(m);
  s.chime_us = m.cost().microseconds(params);
  s.wall_s = m.cost().total_wall_seconds();
  return s;
}

void emit(WordVec& digest, const WordVec& v) {
  digest.insert(digest.end(), v.begin(), v.end());
}

WorkloadInput fol1_make_sized(std::size_t n, std::size_t distinct,
                              std::uint64_t seed) {
  WorkloadInput in;
  in.idx = folvec::random_keys(n, static_cast<Word>(distinct), seed);
  in.work.assign(distinct, 0);
  return in;
}

WorkloadInput fol1_make(std::size_t n) {
  // Dense sharing: each storage area is hit by ~4 lanes, so the
  // decomposition takes several rounds.
  return fol1_make_sized(n, std::max<std::size_t>(1, n / 4), 0xf011 + n);
}

WorkloadInput fol1_rare_make(std::size_t n) {
  // Rare sharing (Theorem 4's O(N) regime): 4N areas, so most lanes are
  // uncontested and the run is one or two rounds of full vector length —
  // the regime where the fused one-pass round shows its full cut.
  return fol1_make_sized(n, 4 * n, 0xfa2e + n);
}

WorkloadInput fol1_distinct_make(std::size_t n) {
  // All-distinct addressing (N areas, multiplicity 1, a shuffled
  // permutation): one full-length round, the baseline the adaptive
  // degradation bound below is measured against.
  WorkloadInput in;
  in.idx.resize(n);
  for (std::size_t i = 0; i < n; ++i) in.idx[i] = static_cast<Word>(i);
  folvec::Xoshiro256 rng(0xd157 + n);
  folvec::shuffle(in.idx, rng);
  in.work.assign(n, 0);
  return in;
}

WorkloadInput fol1_heavy_make(std::size_t n) {
  // Theorem 6's pathological-sharing worst case: every lane addresses the
  // same area (multiplicity N), which the pure decomposition serves in N
  // rounds of shrinking scatters — O(N^2) lane work. The adaptive drain
  // detects the surviving-fraction collapse after round one and finishes in
  // a single O(N) scalar pass; main() asserts the modeled cost stays within
  // 2x the all-distinct baseline at N=2^20.
  WorkloadInput in;
  in.idx.assign(n, 0);
  in.work.assign(1, 0);
  return in;
}

WorkloadInput fol_star_make(std::size_t n) {
  const std::size_t areas = 8 * n;
  WorkloadInput in;
  in.lanes.resize(2);
  for (std::size_t k = 0; k < in.lanes.size(); ++k) {
    in.lanes[k] =
        folvec::random_keys(n, static_cast<Word>(areas), 0x57a2 + n + k);
  }
  in.work.assign(areas, 0);
  return in;
}

WorkloadInput hashing_make(std::size_t n) {
  WorkloadInput in;
  in.idx = folvec::random_unique_keys(n, static_cast<Word>(8 * n), 0x4a54 + n);
  in.work.assign(2 * n + 1, folvec::hashing::kUnentered);
  return in;
}

WorkloadInput sorting_make(std::size_t n) {
  WorkloadInput in;
  in.vmax = static_cast<Word>(4 * n);
  in.idx = folvec::random_keys(n, in.vmax, 0x5057 + n);
  return in;
}

WordVec fol1_body(VectorMachine& m, const WorkloadInput& in) {
  WordVec work = in.work;
  const folvec::fol::Decomposition d =
      folvec::fol::fol1_decompose(m, in.idx, work);
  WordVec digest;
  for (const auto& set : d.sets) {
    digest.push_back(static_cast<Word>(set.size()));
    for (std::size_t lane : set) digest.push_back(static_cast<Word>(lane));
  }
  emit(digest, work);
  return digest;
}

WordVec fol1_drained_body(VectorMachine& m, const WorkloadInput& in) {
  // Same protocol, but the digest leads with the adaptive drain's lane
  // count — the distinct/heavy workloads exist to pin that behavior.
  WordVec work = in.work;
  const folvec::fol::Decomposition d =
      folvec::fol::fol1_decompose(m, in.idx, work);
  WordVec digest{static_cast<Word>(d.drained_lanes)};
  for (const auto& set : d.sets) {
    digest.push_back(static_cast<Word>(set.size()));
    for (std::size_t lane : set) digest.push_back(static_cast<Word>(lane));
  }
  emit(digest, work);
  return digest;
}

WordVec fol_star_body(VectorMachine& m, const WorkloadInput& in) {
  WordVec work = in.work;
  const folvec::fol::StarDecomposition d =
      folvec::fol::fol_star_decompose(m, in.lanes, work);
  WordVec digest{static_cast<Word>(d.scalar_rescues),
                 static_cast<Word>(d.forced_singletons)};
  for (const auto& set : d.sets) {
    digest.push_back(static_cast<Word>(set.size()));
    for (std::size_t lane : set) digest.push_back(static_cast<Word>(lane));
  }
  return digest;
}

WordVec hashing_body(VectorMachine& m, const WorkloadInput& in) {
  WordVec table = in.work;
  const folvec::hashing::MultiHashStats st =
      folvec::hashing::multi_hash_open_insert(
          m, table, in.idx, folvec::hashing::ProbeVariant::kKeyDependent);
  WordVec digest{static_cast<Word>(st.iterations),
                 static_cast<Word>(st.max_vector_len)};
  emit(digest, table);
  return digest;
}

WordVec sorting_body(VectorMachine& m, const WorkloadInput& in) {
  WordVec data = in.idx;
  folvec::sorting::address_calc_sort_vector(m, data, in.vmax);
  return data;
}

}  // namespace

int main() {
  using folvec::Cell;
  using folvec::JsonArray;
  const folvec::vm::CostParams params = folvec::vm::CostParams::s810_like();
  const std::vector<int> sizes = bench_sizes();
  const bool has_n20 =
      std::find(sizes.begin(), sizes.end(), 20) != sizes.end();
  // The SIMD level the simd column below runs at: the dispatcher's pick for
  // this host, after FOLVEC_SIMD_LEVEL forcing and graceful downgrade.
  const SimdLevel simd_level =
      folvec::vm::simd_resolve_level(MachineConfig::simd_level_default());
  folvec::bench::BenchReport report("backend_compare");
  {
    JsonArray sizes_json;
    for (const int lg : sizes) sizes_json.emplace_back(lg);
    report.config("sizes_log2", std::move(sizes_json));
  }
  report.config("simd_level", folvec::vm::simd_level_name(simd_level));

  struct Workload {
    const char* name;
    WorkloadInput (*make)(std::size_t);
    WordVec (*body)(VectorMachine&, const WorkloadInput&);
    bool assert_cut;  // fused chime cut >= 25% at N=2^20 (the FOL1 rounds)
  };
  const Workload workloads[] = {
      {"fol1", fol1_make, fol1_body, true},
      {"fol1_rare", fol1_rare_make, fol1_body, true},
      {"fol1_distinct", fol1_distinct_make, fol1_drained_body, false},
      {"fol1_heavy", fol1_heavy_make, fol1_drained_body, false},
      {"fol_star", fol_star_make, fol_star_body, false},
      {"multi_hash", hashing_make, hashing_body, false},
      {"addr_calc_sort", sorting_make, sorting_body, false},
  };

  // Chime times captured at N=2^20 for the adaptive-degradation bound.
  double distinct_chime_n20 = 0;
  double heavy_chime_n20 = 0;
  // Worst simd-over-serial wall ratio across workloads, per size gate.
  double min_simd_accel_n20 = 0;

  folvec::TablePrinter table({"workload", "N", "fused_chime_us",
                              "unfused_chime_us", "chime_cut", "serial_wall_ms",
                              "simd_wall_ms", "unfused_wall_ms",
                              "simd_accel"});
  for (const Workload& w : workloads) {
    for (const int lg : sizes) {
      const auto n = static_cast<std::size_t>(1) << lg;
      // One input per cell: serial, simd, and unfused all consume these
      // exact buffers.
      const WorkloadInput input = w.make(n);
      const auto body = [&w, &input](VectorMachine& m) {
        return w.body(m, input);
      };
      // One untimed warmup so the first measured run is not the one paying
      // to page in the key material and working set, then min-of-k
      // interleaved reps: ambient host load drifts all three configurations
      // alike instead of landing on whichever ran when the spike hit.
      run_backend(BackendKind::kSerial, /*fuse=*/true, params, body);
      constexpr int kReps = 3;
      Sample serial;
      Sample simd;
      Sample unfused;
      for (int rep = 0; rep < kReps; ++rep) {
        const Sample s =
            run_backend(BackendKind::kSerial, /*fuse=*/true, params, body);
        const Sample v =
            run_backend(BackendKind::kSimd, /*fuse=*/true, params, body);
        const Sample u =
            run_backend(BackendKind::kSerial, /*fuse=*/false, params, body);
        if (rep == 0) {
          serial = s;
          simd = v;
          unfused = u;
        } else {
          FOLVEC_CHECK(s.digest == serial.digest && v.digest == simd.digest &&
                           u.digest == unfused.digest,
                       "workload must be deterministic across reps");
          serial.wall_s = std::min(serial.wall_s, s.wall_s);
          simd.wall_s = std::min(simd.wall_s, v.wall_s);
          unfused.wall_s = std::min(unfused.wall_s, u.wall_s);
        }
      }
      FOLVEC_CHECK(serial.digest == simd.digest,
                   "simd backend diverged from serial reference");
      FOLVEC_CHECK(serial.digest == unfused.digest,
                   "fused kernels diverged from the unfused composition");
      FOLVEC_CHECK(serial.chime_us == simd.chime_us,
                   "backends must issue identical instruction streams");
      FOLVEC_CHECK(serial.chime_us <= unfused.chime_us,
                   "fused kernels must never cost more chimes than the chain");
      const double cut =
          unfused.chime_us > 0 ? 1.0 - serial.chime_us / unfused.chime_us : 0;
      if (w.assert_cut && lg == 20) {
        FOLVEC_CHECK(cut >= 0.25,
                     "fused FOL1 round must cut >= 25% of the chained chime "
                     "cost at N=2^20");
        report.note(std::string(w.name) + "_chime_cut_n20", cut);
        report.note(std::string(w.name) + "_wall_fused_over_unfused_n20",
                    unfused.wall_s > 0 ? serial.wall_s / unfused.wall_s : 0);
      }
      if (lg == 20 && std::string(w.name) == "fol1_distinct") {
        distinct_chime_n20 = serial.chime_us;
      }
      if (lg == 20 && std::string(w.name) == "fol1_heavy") {
        heavy_chime_n20 = serial.chime_us;
      }
      const double simd_accel =
          simd.wall_s > 0 ? serial.wall_s / simd.wall_s : 0;
      if (lg == 20) {
        min_simd_accel_n20 = min_simd_accel_n20 == 0
                                 ? simd_accel
                                 : std::min(min_simd_accel_n20, simd_accel);
      }
      table.add_row({w.name, Cell(static_cast<long long>(n)),
                     Cell(serial.chime_us, 0), Cell(unfused.chime_us, 0),
                     Cell(cut, 3), Cell(serial.wall_s * 1e3, 2),
                     Cell(simd.wall_s * 1e3, 2),
                     Cell(unfused.wall_s * 1e3, 2), Cell(simd_accel, 2)});
    }
  }
  if (has_n20) report.note("simd_wall_accel_min_n20", min_simd_accel_n20);
  // Graceful-degradation acceptance bound: with the adaptive drain on
  // (the default), maximal sharing (every lane one area, multiplicity N)
  // must model within 2x of the all-distinct run of the same length —
  // instead of the ~N/2-fold blowup of the pure Theorem 6 decomposition.
  // Only checkable when the run includes N=2^20.
  if (has_n20) {
    FOLVEC_CHECK(distinct_chime_n20 > 0 && heavy_chime_n20 > 0,
                 "fol1_distinct / fol1_heavy N=2^20 samples missing");
    const double heavy_ratio = heavy_chime_n20 / distinct_chime_n20;
    FOLVEC_CHECK(heavy_ratio <= 2.0,
                 "adaptive drain failed to bound pathological sharing within "
                 "2x of the all-distinct chime cost at N=2^20");
    report.note("fol1_heavy_over_distinct_chime_n20", heavy_ratio);
  }

  // ---- hardware conflict detection vs FOL1 software decomposition ---------
  // The headline ablation: the same dense-sharing index vector as the fol1
  // rows, decomposed once by the paper's multi-round software protocol
  // (timed via the machine's wall accounting) and once by a single
  // conflict_rank pass (timed directly — it is one kernel call, not an
  // instruction stream). rank[i] is lane i's occurrence number among
  // earlier lanes with the same address, so rank class r is parallel set
  // S_{r+1}: a valid minimal decomposition by construction. Cross-checked
  // against the scalar reference kernel bit for bit, and against FOL1's own
  // decomposition (set count and set sizes match whenever the adaptive
  // drain stayed out — both partitions are minimal, Theorem 5).
  const SimdKernels& level_table = folvec::vm::simd_kernels_for(simd_level);
  const bool hw_native = level_table.conflict_rank != nullptr;
  const SimdKernels& rank_table =
      hw_native ? level_table : folvec::vm::simd_kernels_scalar();
  report.config("hw_conflict_native", hw_native ? 1.0 : 0.0);
  folvec::TablePrinter hw_table({"workload", "N", "areas", "fol1_rounds",
                                 "fol1_wall_ms", "hw_rank_wall_ms",
                                 "hw_speedup"});
  for (const int lg : sizes) {
    const auto n = static_cast<std::size_t>(1) << lg;
    const WorkloadInput input = fol1_make(n);
    const std::size_t areas = input.work.size();
    constexpr int kReps = 3;
    // Software half: FOL1 end to end, warmup then min-of-k machine wall.
    folvec::fol::Decomposition dec;
    double fol1_wall = 0;
    for (int rep = -1; rep < kReps; ++rep) {
      MachineConfig cfg;
      cfg.audit = false;
      cfg.backend = BackendKind::kSerial;
      VectorMachine m(cfg);
      WordVec work = input.work;
      folvec::fol::Decomposition d =
          folvec::fol::fol1_decompose(m, input.idx, work);
      const double wall = m.cost().total_wall_seconds();
      if (rep < 0) continue;  // warmup
      if (rep == 0) {
        dec = std::move(d);
        fol1_wall = wall;
      } else {
        fol1_wall = std::min(fol1_wall, wall);
      }
    }
    // Hardware half: zero the occupancy counts (the method's work area,
    // timed like FOL1's work-array scatters are) and rank every lane in one
    // pass.
    WordVec rank(n, -1);
    WordVec counts(areas, 0);
    double hw_wall = 0;
    for (int rep = -1; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      std::fill(counts.begin(), counts.end(), 0);
      rank_table.conflict_rank(rank.data(), input.idx.data(), n,
                               counts.data());
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (rep < 0) continue;
      hw_wall = rep == 0 ? wall : std::min(hw_wall, wall);
    }
    // Bit-exact check against the scalar reference kernel.
    if (&rank_table != &folvec::vm::simd_kernels_scalar()) {
      WordVec ref_rank(n, -1);
      WordVec ref_counts(areas, 0);
      folvec::vm::simd_kernels_scalar().conflict_rank(
          ref_rank.data(), input.idx.data(), n, ref_counts.data());
      FOLVEC_CHECK(rank == ref_rank && counts == ref_counts,
                   "hardware conflict ranks diverged from the scalar "
                   "reference");
    }
    // The counts are the per-area multiplicities; they must cover all lanes.
    Word covered = 0;
    for (const Word c : counts) covered += c;
    FOLVEC_CHECK(covered == static_cast<Word>(n),
                 "conflict_rank counts must cover every lane");
    // Minimality cross-check against FOL1 itself: same set count, same set
    // sizes (valid when the decomposition ran purely on the vector unit —
    // the adaptive drain reassigns lanes and may split sets differently).
    Word max_rank = -1;
    for (const Word r : rank) max_rank = std::max(max_rank, r);
    std::vector<std::size_t> class_size(
        static_cast<std::size_t>(max_rank + 1), 0);
    for (const Word r : rank) ++class_size[static_cast<std::size_t>(r)];
    if (dec.drained_lanes == 0) {
      FOLVEC_CHECK(class_size.size() == dec.rounds(),
                   "hardware rank classes and FOL1 rounds must agree on the "
                   "minimal set count");
      for (std::size_t r = 0; r < class_size.size(); ++r) {
        FOLVEC_CHECK(class_size[r] == dec.sets[r].size(),
                     "hardware rank class sizes must match FOL1 set sizes");
      }
    }
    const double speedup = hw_wall > 0 ? fol1_wall / hw_wall : 0;
    // This gate is the point of the backend: one conflict-detection pass
    // (even the scalar fallback's) must beat the multi-round software
    // protocol it replaces.
    FOLVEC_CHECK(speedup > 1.0,
                 "one-pass conflict ranking must beat the multi-round FOL1 "
                 "software decomposition wall clock");
    hw_table.add_row({"fol1_hw_conflict", Cell(static_cast<long long>(n)),
                      Cell(static_cast<long long>(areas)),
                      Cell(static_cast<long long>(dec.rounds())),
                      Cell(fol1_wall * 1e3, 3), Cell(hw_wall * 1e3, 3),
                      Cell(speedup, 1)});
    // "wall" in the key keeps bench_trend from drift-gating a host-timing
    // ratio (only chime-modeled notes must reproduce bit-for-bit).
    report.note("fol1_hw_conflict_wall_speedup_n" + std::to_string(lg),
                speedup);
    if (lg == 20) {
      report.note("fol1_hw_conflict_fol1_wall_ms_n20", fol1_wall * 1e3);
      report.note("fol1_hw_conflict_hw_wall_ms_n20", hw_wall * 1e3);
    }
  }

  // ---- audit-mode comparison ----------------------------------------------
  // The static verifier's elision claim, measured on the all-distinct FOL1
  // workload (every scatter-class op proven safe): audit off is the floor,
  // full per-lane ScatterCheck the ceiling, and the analysis-elided auditor
  // keeps the guarantees (the elided round's write footprint is booked as
  // one clobber interval) while skipping the per-lane pass.
  const auto run_audit = [&params](AuditMode mode, const WorkloadInput& in) {
    MachineConfig cfg;
    cfg.backend = BackendKind::kSerial;
    cfg.audit = mode != AuditMode::kOff;
    cfg.analysis = mode == AuditMode::kElide;
    cfg.audit_elide = mode == AuditMode::kElide;
    VectorMachine m(cfg);
    AuditSample s;
    s.digest = fol1_drained_body(m, in);
    s.chime_us = m.cost().microseconds(params);
    s.wall_s = m.cost().total_wall_seconds();
    if (auto* a = m.analyzer()) {
      s.scatter_ops = a->stats().scatter_ops;
      s.scatter_safe = a->stats().scatter_safe;
      s.elided = a->stats().elided_instructions;
      s.checked = a->stats().checked_instructions;
    }
    return s;
  };
  folvec::TablePrinter audit_table({"audit", "N", "chime_us", "wall_ms",
                                    "audit_overhead", "scatter_proven_safe",
                                    "elided_fraction"});
  double full_wall_n20 = 0;
  double elide_wall_n20 = 0;
  for (const int lg : sizes) {
    const auto n = static_cast<std::size_t>(1) << lg;
    const WorkloadInput input = fol1_distinct_make(n);
    run_audit(AuditMode::kElide, input);  // warmup (pages in the key material)
    AuditSample off;
    AuditSample full;
    AuditSample elide;
    constexpr int kReps = 3;
    for (int rep = 0; rep < kReps; ++rep) {
      const AuditSample o = run_audit(AuditMode::kOff, input);
      const AuditSample f = run_audit(AuditMode::kFull, input);
      const AuditSample e = run_audit(AuditMode::kElide, input);
      if (rep == 0) {
        off = o;
        full = f;
        elide = e;
      } else {
        off.wall_s = std::min(off.wall_s, o.wall_s);
        full.wall_s = std::min(full.wall_s, f.wall_s);
        elide.wall_s = std::min(elide.wall_s, e.wall_s);
      }
    }
    FOLVEC_CHECK(off.digest == full.digest && off.digest == elide.digest,
                 "audit modes must not change workload outputs");
    FOLVEC_CHECK(off.chime_us == full.chime_us &&
                     off.chime_us == elide.chime_us,
                 "auditing is host bookkeeping: the modeled chime stream "
                 "must be identical across audit modes");
    FOLVEC_CHECK(elide.scatter_ops > 0, "analysis saw no scatter-class ops");
    const double safe_frac = static_cast<double>(elide.scatter_safe) /
                             static_cast<double>(elide.scatter_ops);
    const std::uint64_t audited = elide.elided + elide.checked;
    const double elided_frac =
        audited > 0 ? static_cast<double>(elide.elided) /
                          static_cast<double>(audited)
                    : 0;
    FOLVEC_CHECK(safe_frac >= 0.8,
                 "the distinct-key FOL1 workload must prove >= 80% of its "
                 "scatter-class ops safe");
    const auto row = [&](const char* name, const AuditSample& s, bool stats) {
      audit_table.add_row(
          {name, Cell(static_cast<long long>(n)), Cell(s.chime_us, 0),
           Cell(s.wall_s * 1e3, 2),
           Cell(off.wall_s > 0 ? s.wall_s / off.wall_s : 0, 2),
           stats ? Cell(safe_frac, 3) : Cell(""),
           stats ? Cell(elided_frac, 3) : Cell("")});
    };
    row("off", off, false);
    row("full", full, false);
    row("elide", elide, true);
    if (lg == 20) {
      full_wall_n20 = full.wall_s;
      elide_wall_n20 = elide.wall_s;
      report.note("fol1_distinct_audit_full_wall_ms_n20", full.wall_s * 1e3);
      report.note("fol1_distinct_audit_elide_wall_ms_n20",
                  elide.wall_s * 1e3);
      report.note("fol1_distinct_scatter_proven_safe_n20", safe_frac);
      report.note("fol1_distinct_elided_fraction_n20", elided_frac);
    }
  }
  // The elision acceptance bound: proving the ops safe must actually buy
  // back the auditor's per-lane wall cost on the workload it targets.
  if (has_n20) {
    FOLVEC_CHECK(elide_wall_n20 < full_wall_n20,
                 "analysis-elided auditing must beat the full per-lane "
                 "ScatterCheck wall time at N=2^20");
  }

  table.print(std::cout,
              std::string("Backend comparison: fused vs unfused chimes; "
                          "serial and simd wall clock (simd=") +
                  folvec::vm::simd_level_name(simd_level) + ")");
  hw_table.print(std::cout,
                 std::string("fol1_hw_conflict ablation: one-pass ") +
                     (hw_native ? "hardware" : "scalar-fallback") +
                     " conflict ranking (" +
                     folvec::vm::simd_level_name(rank_table.level) +
                     ") vs the FOL1 software decomposition");
  audit_table.print(std::cout,
                    "Audit modes on the proven-safe fol1_distinct workload: "
                    "off vs full ScatterCheck vs analysis-elided");
  report.add_table("Audit modes on the proven-safe fol1_distinct workload: "
                       "off vs full ScatterCheck vs analysis-elided",
                   audit_table);
  report.add_table("Backend comparison: fused vs unfused chimes; serial "
                   "and simd wall clock",
                   table);
  report.add_table("fol1_hw_conflict ablation: one-pass conflict ranking vs "
                       "the FOL1 software decomposition",
                   hw_table);
  std::cout << "\nchime times are backend-invariant (asserted); chime_cut is "
               "1 - fused/unfused, asserted >= 0.25 for the FOL1 workloads "
               "at N=2^20;\nfol1_hw_conflict asserts the one-pass conflict "
               "ranking beats the multi-round FOL1 software wall clock\n";
  return 0;
}

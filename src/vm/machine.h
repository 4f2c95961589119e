// A software model of a register-based pipelined vector processor.
//
// VectorMachine is the substrate every vectorized algorithm in this repo is
// written against. It provides the primitive set the paper's pseudo-code
// assumes (Fortran-90-style array operations plus the "list vector"
// gather/scatter of the Hitachi S-810/S-3800):
//
//   * elementwise arithmetic / compares producing masks,
//   * masked stores (`where M do A := B`),
//   * compress / pack-under-mask (`A where M`),
//   * count_true,
//   * gather (indexed load) and scatter (indexed store).
//
// The scatter models the **ELS condition** (exclusive label storing,
// Section 3.2 of the paper): when several lanes write the same address, the
// surviving value is exactly one of the written values — *which* one is
// machine-dependent. The paper's correctness argument depends on FOL working
// for any survivor, so the machine makes the survivor configurable
// (ScatterOrder): forward (last lane wins, like an ordered VSTX), reverse
// (first lane wins), or shuffled (a fresh deterministic pseudo-random
// write order per scatter, modelling the undefined inter-pipe interleaving
// of a parallel-pipe machine like the S-3800). Tests fuzz FOL under all
// three. Failure injection (the `els` site of an installed FaultPlan, see
// support/faultsim.h) deliberately breaks the ELS guarantee by storing a
// bitwise amalgam of the colliding values, which FOL must detect rather than
// silently mis-decompose.
//
// Every operation records itself in a CostAccumulator so benchmarks can
// price the run under a chime model (see cost_model.h). Scalar baseline
// algorithms tick the same accumulator through scalar_alu()/scalar_mem()/
// scalar_branch(), so "acceleration ratio" always compares like with like.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "analysis/opgraph.h"
#include "support/prng.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"
#include "telemetry/spans.h"
#include "vm/cost_model.h"
#include "vm/hazard.h"
#include "vm/mask.h"

namespace folvec::analysis {
class Analyzer;
}  // namespace folvec::analysis

namespace folvec::vm {

/// The machine word. Pointers, subscripts, labels, keys and data values are
/// all Words, exactly as on the word-addressed vector machines of the era.
using Word = std::int64_t;
using WordVec = std::vector<Word>;

/// Which colliding lane survives a scatter to a shared address.
enum class ScatterOrder : std::uint8_t {
  kForward,   ///< lanes written 0..n-1; highest colliding lane survives
  kReverse,   ///< lanes written n-1..0; lowest colliding lane survives
  kShuffled,  ///< fresh pseudo-random lane order per scatter instruction
};

/// How the backend (see backend.h) runs the primitive lane loops: which
/// kernel table, and across how many workers.
enum class BackendKind : std::uint8_t {
  kSerial,        ///< scalar reference table, one worker
  kParallel,      ///< scalar table, backend_threads workers
  kSimd,          ///< resolved simd_level table, one worker
  kParallelSimd,  ///< resolved simd_level table, backend_threads workers
};

/// Which SIMD kernel table the SIMD kinds execute through (see
/// simd_backend.h). Declaration order is support rank order: resolution
/// downgrades toward kScalar, never up.
enum class SimdLevel : std::uint8_t {
  kScalar,  ///< reference loops through the table plumbing (always available)
  kNeon,    ///< AArch64 Advanced SIMD, 2 lanes
  kAvx2,    ///< x86-64 AVX2, 4 lanes
  kAvx512,  ///< x86-64 AVX-512 F+CD+DQ+BW+VL, 8 lanes + ordered scatter
  kAuto,    ///< resolve to the best level the host supports
};

// Lane-kernel pointer shapes of the SIMD kernel table (simd_kernels.h). All
// operate on lanes [lo, hi) of shared vectors, the same contract as
// Backend::for_lanes chunks.
using SimdBinFn = void (*)(Word*, const Word*, const Word*, std::size_t,
                           std::size_t);
using SimdMapFn = void (*)(Word*, const Word*, Word, std::size_t,
                           std::size_t);
using SimdCmpFn = void (*)(std::uint8_t*, const Word*, const Word*,
                           std::size_t, std::size_t);
using SimdCmpSFn = void (*)(std::uint8_t*, const Word*, Word, std::size_t,
                            std::size_t);

struct MachineConfig {
  ScatterOrder scatter_order = ScatterOrder::kForward;
  /// Seed for the kShuffled write orders (each scatter derives a fresh
  /// sub-seed, so repeated scatters see different orders deterministically).
  std::uint64_t shuffle_seed = 0x51d5eedULL;

  /// Default audit setting: from the FOLVEC_AUDIT environment variable when
  /// set (off spellings, case-insensitive: 0/false/off/no — see
  /// support/env.h), else false.
  static bool audit_default();

  /// Default backend: from the FOLVEC_BACKEND environment variable when set
  /// ("serial"/"parallel"/"simd"/"parallel+simd" (or "simd+parallel"), or
  /// the boolean spellings of support/env.h where truthy means parallel),
  /// else serial.
  static BackendKind backend_default();

  /// Execution backend. Audit mode pins the instruction stream to the
  /// single-threaded path regardless (ScatterCheck's per-lane bookkeeping is
  /// single-threaded, and audited runs must see reference execution):
  /// kParallel runs as kSerial and kParallelSimd as kSimd. The SIMD lane
  /// kernels themselves stay auditable — they are bit-identical to serial
  /// and execute on the issuing thread.
  BackendKind backend = backend_default();

  /// Default SIMD level: from the FOLVEC_SIMD_LEVEL environment variable
  /// when set (auto/scalar/neon/avx2/avx512), else kAuto.
  static SimdLevel simd_level_default();

  /// Requested kernel level for the SIMD kinds (kSerial / kParallel always
  /// run the scalar table). kAuto resolves to the best level the host CPU
  /// supports; a forced level unavailable on this host/build degrades to the
  /// best supported lower level with a one-time stderr notice (see
  /// simd_backend.h).
  SimdLevel simd_level = simd_level_default();
  /// Worker threads for kParallel / kParallelSimd; 0 = hardware concurrency.
  std::size_t backend_threads = 0;
  /// Minimum lanes per worker chunk before the backend splits an
  /// instruction. Tests lower it to exercise the parallel path on short
  /// vectors; benches keep the default so tiny ops skip dispatch.
  std::size_t backend_grain = 4096;

  /// Execute scatter_gather_eq / partition as single fused instructions
  /// (chained pipes, one vector startup). With false they run as their
  /// unfused primitive compositions — bit-identical outputs, the original
  /// chime stream — which is the differential-testing reference.
  bool fuse = true;

  /// Adaptive degradation for pathological sharing (Theorems 5-6): when a
  /// FOL round's surviving fraction collapses below 1/8 with at least 2048
  /// lanes still unassigned (the constants of fol/rounds.h), the FOL round
  /// loop drains the remaining high-multiplicity tail through the scalar
  /// unit in one O(k) pass instead of running O(max multiplicity) further
  /// vector rounds — bounding the Theorem 6 worst case at O(N) vector work
  /// plus O(k) scalar work. The drained assignment preserves every
  /// decomposition theorem and is identical across backends and fuse modes.
  bool adaptive = true;

  /// Enable the ScatterCheck hazard auditor (see checker.h) on this machine.
  bool audit = audit_default();
  /// Under audit, throw AuditError at the offending instruction for
  /// audit-class hazards. With false, hazards only accumulate in
  /// VectorMachine::hazards(). Hard preconditions (bounds, lengths) always
  /// throw PreconditionError regardless.
  bool audit_throw = true;

  /// Attach the static hazard analyzer (see analysis/analyzer.h): every
  /// primitive transfers abstract lane facts and list-vector memory ops are
  /// classified per hazard class before they execute.
  bool analysis = false;

  /// With both audit and analysis on, skip ScatterCheck's per-lane pass for
  /// instructions the analyzer proves safe in every hazard class (the
  /// machine's hard bounds check always runs). Never elides under fault
  /// injection, so injected hazards stay detectable. See docs/analysis.md
  /// for the exact detection coverage traded away.
  bool audit_elide = true;
};

class ScatterChecker;
class Backend;
class BufferPool;
class RangeFn;  // full declaration in backend.h
struct SimdKernels;  // full declaration in simd_kernels.h
enum class ScatterTraversal : std::uint8_t;  // full declaration in backend.h

class VectorMachine {
 public:
  VectorMachine() : VectorMachine(MachineConfig{}) {}
  explicit VectorMachine(const MachineConfig& config);
  ~VectorMachine();
  VectorMachine(VectorMachine&&) noexcept;
  VectorMachine& operator=(VectorMachine&&) noexcept;

  const MachineConfig& config() const { return config_; }
  CostAccumulator& cost() { return cost_; }
  const CostAccumulator& cost() const { return cost_; }

  /// Name of the active execution backend ("serial", "parallel", "simd" or
  /// "parallel+simd"). May differ from config().backend: audit mode pins
  /// execution to the single-threaded path.
  const char* backend_name() const;
  /// Worker count of the active backend (1 for serial/simd).
  std::size_t backend_workers() const;
  /// The level of the kernel table the machine executes through (kScalar
  /// on kSerial / kParallel, which run the scalar reference table).
  SimdLevel active_simd_level() const;
  /// Lane-kernel table dispatches on a SIMD-kind machine (kSimd /
  /// kParallelSimd; also published as backend.simd.dispatch.*). Always 0 on
  /// kSerial / kParallel, whose scalar-table dispatches are not counted.
  std::size_t simd_dispatches() const { return simd_dispatches_; }

  // ---- ScatterCheck auditing (see checker.h) ------------------------------

  bool audit_enabled() const { return checker_ != nullptr; }

  /// The auditor, or nullptr when audit mode is off.
  ScatterChecker* checker() { return checker_.get(); }

  // ---- static hazard analysis (see analysis/analyzer.h) -------------------

  /// The analyzer, or nullptr when MachineConfig::analysis is off.
  analysis::Analyzer* analyzer() { return analyzer_.get(); }

  /// Source location attached to subsequently recorded ops (the lang
  /// interpreter sets this per statement). No-op without analysis.
  void set_source_line(std::size_t line);

  /// Measured-range annotation: host-scans `v` (no machine cost) and records
  /// a tight interval fact, so subsequent gathers/scatters indexed by `v`
  /// can be proven in bounds. No-op without analysis.
  void observe_range(std::span<const Word> v);

  /// Hazards recorded so far (an empty report when audit mode is off).
  const HazardReport& hazards() const;
  void clear_hazards();

  /// Declares that `region` (a label work array) is dead: drops any
  /// clobbered-work marks covering it so unrelated arrays that later reuse
  /// the allocation are not flagged. No-op without audit; free.
  void retire_work(std::span<const Word> region);

  /// The machine's vector-register buffer pool (see buffer_pool.h).
  /// Steady-state round loops acquire their working vectors here and feed
  /// them to the *_into primitives so repeated rounds allocate nothing.
  BufferPool& pool() { return *pool_; }

  // ---- vector generation -------------------------------------------------

  /// (start, start+step, start+2*step, ...), n elements.
  WordVec iota(std::size_t n, Word start = 0, Word step = 1);

  /// n copies of `value`.
  WordVec splat(std::size_t n, Word value);

  /// Vector register copy (load+store cost).
  WordVec copy(std::span<const Word> v);

  /// Element order reversal (a negative-stride vector load).
  WordVec reverse(std::span<const Word> v);

  // ---- elementwise arithmetic --------------------------------------------

  WordVec add(std::span<const Word> a, std::span<const Word> b);
  WordVec sub(std::span<const Word> a, std::span<const Word> b);
  WordVec mul(std::span<const Word> a, std::span<const Word> b);
  WordVec add_scalar(std::span<const Word> a, Word s);
  WordVec mul_scalar(std::span<const Word> a, Word s);
  /// Floor division by a positive scalar.
  WordVec div_scalar(std::span<const Word> a, Word s);
  /// Euclidean remainder by a positive scalar (result in [0, s)).
  WordVec mod_scalar(std::span<const Word> a, Word s);
  WordVec and_scalar(std::span<const Word> a, Word s);
  WordVec or_scalar(std::span<const Word> a, Word s);
  /// Logical left shift by k in [0, 63]; elements must be non-negative.
  WordVec shl_scalar(std::span<const Word> a, int k);
  /// Arithmetic right shift by k in [0, 63].
  WordVec shr_scalar(std::span<const Word> a, int k);
  WordVec negate(std::span<const Word> a);

  // ---- compares producing masks ------------------------------------------

  Mask eq(std::span<const Word> a, std::span<const Word> b);
  Mask ne(std::span<const Word> a, std::span<const Word> b);
  Mask le(std::span<const Word> a, std::span<const Word> b);
  Mask lt(std::span<const Word> a, std::span<const Word> b);
  Mask eq_scalar(std::span<const Word> a, Word s);
  Mask ne_scalar(std::span<const Word> a, Word s);
  Mask le_scalar(std::span<const Word> a, Word s);
  Mask lt_scalar(std::span<const Word> a, Word s);
  Mask ge_scalar(std::span<const Word> a, Word s);

  // ---- mask algebra --------------------------------------------------------

  Mask mask_and(const Mask& a, const Mask& b);
  Mask mask_or(const Mask& a, const Mask& b);
  Mask mask_not(const Mask& a);
  std::size_t count_true(const Mask& m);

  // ---- reductions ---------------------------------------------------------

  Word reduce_sum(std::span<const Word> v);
  /// Minimum of a nonempty vector.
  Word reduce_min(std::span<const Word> v);
  /// Maximum of a nonempty vector.
  Word reduce_max(std::span<const Word> v);

  // ---- selection ------------------------------------------------------------

  /// `A where M`: packs elements of `v` whose mask is true.
  WordVec compress(std::span<const Word> v, const Mask& m);

  /// Elementwise select: out[i] = m[i] ? a[i] : b[i].
  WordVec select(const Mask& m, std::span<const Word> a,
                 std::span<const Word> b);

  /// Mask to 0/1 words (mask-controlled vector of constants).
  WordVec from_mask(const Mask& m);

  // ---- memory: contiguous -----------------------------------------------

  /// table[offset .. offset+v.size()) = v.
  void store(std::span<Word> table, std::size_t offset,
             std::span<const Word> v);

  /// Fill table[0..n) with value (vector store).
  void fill(std::span<Word> table, Word value);

  /// Contiguous load of n words starting at offset.
  WordVec load(std::span<const Word> table, std::size_t offset, std::size_t n);

  /// Strided load: out[i] = table[offset + i*stride], n elements.
  WordVec load_strided(std::span<const Word> table, std::size_t offset,
                       std::size_t stride, std::size_t n);

  /// Strided store: table[offset + i*stride] = v[i].
  void store_strided(std::span<Word> table, std::size_t offset,
                     std::size_t stride, std::span<const Word> v);

  // ---- memory: list vector (indexed) --------------------------------------

  /// out[i] = table[idx[i]]. Bounds-checked.
  WordVec gather(std::span<const Word> table, std::span<const Word> idx);

  /// Masked gather: out[i] = m[i] ? table[idx[i]] : fill. Inactive lanes do
  /// not access memory, so their idx may be arbitrary (e.g. a null link).
  WordVec gather_masked(std::span<const Word> table, std::span<const Word> idx,
                        const Mask& m, Word fill);

  /// table[idx[i]] = vals[i] under the configured ScatterOrder (models the
  /// S-3800 VIST instruction: ELS condition only).
  void scatter(std::span<Word> table, std::span<const Word> idx,
               std::span<const Word> vals);

  /// Masked scatter: lanes with m[i] false do not store.
  void scatter_masked(std::span<Word> table, std::span<const Word> idx,
                      std::span<const Word> vals, const Mask& m);

  /// Order-preserving scatter (models VSTX): lane i's store completes before
  /// lane i+1's, so the *last* colliding lane always survives. Slower class.
  void scatter_ordered(std::span<Word> table, std::span<const Word> idx,
                       std::span<const Word> vals);

  /// Single scalar-unit store table[pos] = value (one kScalarMem tick).
  /// FOL*'s deadlock-avoidance rescue uses this so the auditor can see the
  /// write; prefer it over raw writes to any vector-visible table.
  void scalar_store(std::span<Word> table, std::size_t pos, Word value);

  // ---- fused kernels -------------------------------------------------------
  //
  // Each fused op is semantically identical to a fixed composition of the
  // primitives above, but issues as ONE instruction charged the chained cost
  // (one vector startup, overlapped pipes — see cost_model.h). With
  // MachineConfig::fuse == false the op literally executes
  // its composition instead: bit-identical outputs and memory effects, the
  // original unfused chime stream. ScatterCheck observes the fused scatter
  // through the same on_scatter/on_gather hooks as the composition.

  /// Fused FOL kernel: scatter(table, idx, vals); readback = gather(table,
  /// idx); return eq(readback, vals) — the ELS survivor mask in one pass.
  /// The result Mask carries its popcount (the survivor count falls out of
  /// the fused compare), so callers need no separate count_true.
  Mask scatter_gather_eq(std::span<Word> table, std::span<const Word> idx,
                         std::span<const Word> vals);

  /// Destination-passing scatter_gather_eq; reuses `out`'s storage.
  void scatter_gather_eq_into(Mask& out, std::span<Word> table,
                              std::span<const Word> idx,
                              std::span<const Word> vals);

  /// Masked fused kernel: scatter_masked(table, idx, vals, active); then
  /// mask_and(eq(gather(table, idx), vals), active). Note the readback
  /// gathers ALL lanes (like the composition), so every idx must be in
  /// bounds even where `active` is false.
  Mask scatter_gather_eq_masked(std::span<Word> table,
                                std::span<const Word> idx,
                                std::span<const Word> vals,
                                const Mask& active);

  /// Fused one-pass split: {compress(v, m), compress(v, mask_not(m))}.
  std::pair<WordVec, WordVec> partition(std::span<const Word> v,
                                        const Mask& m);

  /// Destination-passing partition; returns the kept count. `kept` and
  /// `rejected` are resized to exactly popcount(m) and v.size()-popcount(m)
  /// and must not alias `v`.
  std::size_t partition_into(WordVec& kept, WordVec& rejected,
                             std::span<const Word> v, const Mask& m);

  // ---- destination-passing variants ---------------------------------------
  //
  // Same semantics, op class and chime as the value-returning primitive;
  // `out` is resized to the result length and its capacity is reused, so a
  // pool-acquired buffer makes repeated rounds allocation-free. `out` must
  // not alias any input span.

  void iota_into(WordVec& out, std::size_t n, Word start = 0, Word step = 1);
  void copy_into(WordVec& out, std::span<const Word> v);
  void reverse_into(WordVec& out, std::span<const Word> v);
  void add_into(WordVec& out, std::span<const Word> a, std::span<const Word> b);
  void add_scalar_into(WordVec& out, std::span<const Word> a, Word s);
  void mul_scalar_into(WordVec& out, std::span<const Word> a, Word s);
  void div_scalar_into(WordVec& out, std::span<const Word> a, Word s);
  void and_scalar_into(WordVec& out, std::span<const Word> a, Word s);
  void mod_scalar_into(WordVec& out, std::span<const Word> a, Word s);
  void shr_scalar_into(WordVec& out, std::span<const Word> a, int k);
  void negate_into(WordVec& out, std::span<const Word> a);
  void select_into(WordVec& out, const Mask& m, std::span<const Word> a,
                   std::span<const Word> b);
  void eq_into(Mask& out, std::span<const Word> a, std::span<const Word> b);
  void ne_scalar_into(Mask& out, std::span<const Word> a, Word s);
  void mask_and_into(Mask& out, const Mask& a, const Mask& b);
  void gather_into(WordVec& out, std::span<const Word> table,
                   std::span<const Word> idx);
  /// Returns the packed length (= popcount of m).
  std::size_t compress_into(WordVec& out, std::span<const Word> v,
                            const Mask& m);

  // ---- scalar-unit cost ticks ---------------------------------------------

  void scalar_alu(std::size_t n = 1) { issue(OpClass::kScalarAlu, n); }
  void scalar_mem(std::size_t n = 1) { issue(OpClass::kScalarMem, n); }
  void scalar_branch(std::size_t n = 1) { issue(OpClass::kScalarBranch, n); }
  void scalar_div(std::size_t n = 1) { issue(OpClass::kScalarDiv, n); }

 private:
  void issue(OpClass c, std::size_t n) { cost_.record(c, n); }

  /// RAII wall-clock probe, the one place an instruction's host time is
  /// taken: charges the enclosing scope's elapsed time to one op class,
  /// next to the chime counts the same scope issues. When a span tracer is
  /// installed the instruction also becomes a leaf "op" event in the Chrome
  /// trace (op_class_name returns static storage, so the event allocates
  /// nothing); when a calibration profiler is installed the (elements, wall)
  /// pair feeds the per-op-class wall~chime fit. With no metrics registry,
  /// tracer or profiler installed nothing reads the time, so the clock is
  /// never read and the wall ledger stays untouched.
  class OpTimer {
   public:
    OpTimer(CostAccumulator& cost, OpClass c, std::size_t elements)
        : cost_(cost),
          c_(c),
          elements_(elements),
          timed_(telemetry::metrics() != nullptr ||
                 telemetry::tracer() != nullptr ||
                 telemetry::profiler() != nullptr) {
      if (timed_) start_ = std::chrono::steady_clock::now();
    }
    ~OpTimer() {
      if (!timed_) return;
      const auto end = std::chrono::steady_clock::now();
      const std::chrono::duration<double> dt = end - start_;
      cost_.record_wall(c_, dt.count());
      if (telemetry::SpanTracer* t = telemetry::tracer()) {
        t->op(op_class_name(c_), elements_, start_, end);
      }
      telemetry::profile_op(op_class_name(c_), elements_, dt.count());
    }
    OpTimer(const OpTimer&) = delete;
    OpTimer& operator=(const OpTimer&) = delete;

   private:
    CostAccumulator& cost_;
    OpClass c_;
    std::size_t elements_;
    bool timed_;
    std::chrono::steady_clock::time_point start_;
  };

  // Elementwise helpers: each runs one kernel-table entry over every lane
  // of the instruction. `s` is the scalar operand of SimdMapFn/SimdCmpSFn
  // entries (the shift count for shr_s, ignored by neg).
  WordVec zip(std::span<const Word> a, std::span<const Word> b, SimdBinFn k);
  void zip_into(WordVec& out, std::span<const Word> a, std::span<const Word> b,
                SimdBinFn k);
  WordVec map(std::span<const Word> a, SimdMapFn k, Word s);
  void map_into(WordVec& out, std::span<const Word> a, SimdMapFn k, Word s);
  Mask cmp(std::span<const Word> a, std::span<const Word> b, SimdCmpFn k);
  void cmp_into(Mask& out, std::span<const Word> a, std::span<const Word> b,
                SimdCmpFn k);
  Mask cmp_scalar(std::span<const Word> a, SimdCmpSFn k, Word s);
  void cmp_scalar_into(Mask& out, std::span<const Word> a, SimdCmpSFn k,
                       Word s);

  /// The kernel table the backend runs; on a SIMD-kind machine each call
  /// counts one dispatch.
  const SimdKernels& kernels();

  /// Issues one class-`c` instruction over n lanes and runs its lane-aligned
  /// kernel over [0, n) through the backend, under the instruction's
  /// OpTimer.
  void run_lanes(OpClass c, std::size_t n, RangeFn kernel);

  /// Shared fused-kernel body for the scatter_gather_eq variants: issues the
  /// single kVectorScatterGatherEq instruction and runs the backend's fused
  /// scatter + readback-compare, publishing the survivor count on `out`.
  /// The caller has already run the scatter-half hooks and bounds checks;
  /// the readback half's audit probe (and, for the masked form, its
  /// all-lanes bounds check) runs between the two passes.
  /// With `elide` true the readback's audit probe is skipped (the scatter
  /// half's elision already booked the range with the checker); the masked
  /// form's all-lanes bounds recheck always runs.
  void fused_scatter_gather_eq(Mask& out, std::span<Word> table,
                               std::span<const Word> idx,
                               std::span<const Word> vals, const Mask* active,
                               bool elide);

  /// The shuffled lane write order for one kShuffled scatter instruction.
  std::vector<std::size_t> shuffled_lane_order(std::size_t n);

  /// One kElsViolation fault draw for an unmasked scatter-class instruction
  /// (the plain scatter or the fused scatter_gather_eq — both consume
  /// exactly one draw per instruction, so fused and unfused runs under the
  /// same FaultPlan see identical decision streams). Emits the
  /// fault.injected.els counter on fire.
  bool els_fault_fires();

  /// The ELS-violation memory image: every contested address receives the
  /// XOR-amalgam of its colliding (values + 1); singleton writes land
  /// intact. One hash-map pass, identical for every backend.
  static void amalgam_scatter(std::span<Word> table, std::span<const Word> idx,
                              std::span<const Word> vals);

  /// Dispatches one ELS scatter to the backend under the configured
  /// ScatterOrder (bounds already checked, audit hooks already run).
  void dispatch_scatter(std::span<Word> table, std::span<const Word> idx,
                        std::span<const Word> vals, const Mask* mask);

  void check_indices(std::span<const Word> idx, std::size_t table_size,
                     const Mask* mask = nullptr);

  /// True when the machine is in a state where an all-safe static verdict
  /// licenses skipping ScatterCheck's per-lane pass: analysis + audit on,
  /// elision enabled, and no fault injection of any kind in play.
  bool elide_allowed() const;

  /// Forwards one compare result to the analyzer (no-op without analysis).
  void rec_cmp(analysis::Opcode op, const Mask& out, std::span<const Word> a,
               std::span<const Word> b, Word s);

  /// Attempts to elide ScatterCheck's per-lane pass for one scatter-class
  /// instruction: requires elide_allowed(), an all-safe verdict and a proven
  /// index range. On success the checker is told the elided write range (so
  /// its clobber bookkeeping stays exact) and elision stats are bumped.
  bool try_elide_scatter(std::span<const Word> table, std::span<const Word> idx,
                         const analysis::OpVerdicts& sv, bool masked);

  /// Publishes this machine's accumulated state to the installed metrics
  /// registry (vm.op.* chime counts and wall timings, audit.hazard.* counts,
  /// backend.* identity). Called from the destructor; a no-op when no
  /// registry is installed.
  void flush_telemetry() const;

  /// Resolves the configured ScatterOrder for one scatter-class instruction:
  /// fills `order` (consuming one shuffled draw under kShuffled, exactly as
  /// the plain scatter would) and returns the traversal for the backend.
  ScatterTraversal resolve_scatter_order(std::size_t n,
                                         std::vector<std::size_t>& order);

  MachineConfig config_;
  /// The kind actually run: config_.backend after audit pinning.
  BackendKind kind_;
  CostAccumulator cost_;
  Xoshiro256 shuffle_rng_;
  std::unique_ptr<ScatterChecker> checker_;
  // Declared before pool_: the pool's destructor fires release hooks into
  // the analyzer, so the analyzer must still be alive when pool_ dies.
  std::unique_ptr<analysis::Analyzer> analyzer_;
  std::unique_ptr<Backend> backend_;
  /// Lane-kernel table dispatches (counted on SIMD kinds only).
  std::size_t simd_dispatches_ = 0;
  std::unique_ptr<BufferPool> pool_;
};

/// RAII algorithm span: a chime-carrying telemetry span scoped to one
/// machine. On both edges it reads the machine's cost accumulator, so the
/// Chrome trace shows the modeled instruction/element deltas attributed to
/// the span next to its measured wall time. A no-op when tracing is off.
class AlgoSpan {
 public:
  AlgoSpan(VectorMachine& m, const char* name)
      : m_(m), active_(telemetry::tracing()) {
    if (active_) {
      telemetry::tracer()->begin(name, m_.cost().total_instructions(),
                                 m_.cost().total_elements());
    }
  }
  /// Builds "prefix[index]" (e.g. "round[3]") only when tracing is on.
  AlgoSpan(VectorMachine& m, const char* prefix, std::size_t index)
      : m_(m), active_(telemetry::tracing()) {
    if (active_) {
      telemetry::tracer()->begin(
          std::string(prefix) + '[' + std::to_string(index) + ']',
          m_.cost().total_instructions(), m_.cost().total_elements());
    }
  }
  ~AlgoSpan() {
    if (active_) {
      telemetry::tracer()->end(m_.cost().total_instructions(),
                               m_.cost().total_elements());
    }
  }
  AlgoSpan(const AlgoSpan&) = delete;
  AlgoSpan& operator=(const AlgoSpan&) = delete;

 private:
  VectorMachine& m_;
  bool active_;
};

}  // namespace folvec::vm

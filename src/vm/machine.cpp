#include "vm/machine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "analysis/analyzer.h"
#include "support/env.h"
#include "support/faultsim.h"
#include "vm/backend.h"
#include "vm/buffer_pool.h"
#include "vm/checker.h"
#include "vm/simd_backend.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {

namespace {

/// The kind a machine built from `config` runs. Audit pins execution to the
/// single-threaded path: ScatterCheck's per-lane bookkeeping is
/// single-threaded, and an audited instruction stream must be the one whose
/// semantics the auditor reasons about. The kernel tables run on the issuing
/// thread and are bit-identical to the scalar table, so kSimd itself stays
/// auditable — only the pool is pinned away (kParallel -> kSerial,
/// kParallelSimd -> kSimd).
BackendKind effective_kind(const MachineConfig& config) {
  if (config.audit && config.backend == BackendKind::kParallel) {
    return BackendKind::kSerial;
  }
  if (config.audit && config.backend == BackendKind::kParallelSimd) {
    return BackendKind::kSimd;
  }
  return config.backend;
}

bool is_simd_kind(BackendKind k) {
  return k == BackendKind::kSimd || k == BackendKind::kParallelSimd;
}

/// One-time stderr notice that the parallel request was pinned; per-machine
/// repetition would drown test output, but silence would leave
/// FOLVEC_BACKEND=parallel users benchmarking the wrong backend unawares.
void warn_audit_pin_once() {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "folvec: audit mode pins execution to the single-threaded "
                 "path; the requested parallel workers are ignored "
                 "(set FOLVEC_AUDIT=0 to benchmark parallel execution)\n");
  }
}

/// Telemetry spelling of a BackendKind request.
const char* backend_kind_name(BackendKind k) {
  switch (k) {
    case BackendKind::kSerial:
      return "serial";
    case BackendKind::kParallel:
      return "parallel";
    case BackendKind::kSimd:
      return "simd";
    case BackendKind::kParallelSimd:
      return "parallel+simd";
  }
  return "serial";
}

}  // namespace

bool MachineConfig::audit_default() {
  if (const auto env = env_value("FOLVEC_AUDIT")) return env_flag(*env);
  return false;
}

BackendKind MachineConfig::backend_default() {
  if (const auto env = env_value("FOLVEC_BACKEND")) {
    const std::string v = env_normalize(*env);
    if (v == "serial") return BackendKind::kSerial;
    if (v == "parallel") return BackendKind::kParallel;
    if (v == "simd") return BackendKind::kSimd;
    if (v == "parallel+simd" || v == "simd+parallel") {
      return BackendKind::kParallelSimd;
    }
    return env_flag(v) ? BackendKind::kParallel : BackendKind::kSerial;
  }
  return BackendKind::kSerial;
}

SimdLevel MachineConfig::simd_level_default() {
  if (const auto env = env_value("FOLVEC_SIMD_LEVEL")) {
    return simd_parse_level(env_normalize(*env).c_str());
  }
  return SimdLevel::kAuto;
}

VectorMachine::VectorMachine(const MachineConfig& config)
    : config_(config),
      kind_(effective_kind(config)),
      shuffle_rng_(config.shuffle_seed),
      pool_(std::make_unique<BufferPool>()) {
  if (config_.audit) {
    checker_ = std::make_unique<ScatterChecker>(config_.audit_throw);
  }
  if (config_.analysis) {
    analyzer_ = std::make_unique<analysis::Analyzer>();
    pool_->set_analyzer(analyzer_.get());
  }
  const bool pooled =
      kind_ == BackendKind::kParallel || kind_ == BackendKind::kParallelSimd;
  backend_ = std::make_unique<Backend>(
      is_simd_kind(kind_)
          ? simd_kernels_for(simd_resolve_level(config_.simd_level))
          : simd_kernels_scalar(),
      pooled ? config_.backend_threads : 1, config_.backend_grain);
  if (kind_ != config_.backend) warn_audit_pin_once();
}

VectorMachine::~VectorMachine() {
  // A moved-from machine has no backend (and nothing to report).
  if (backend_ != nullptr) flush_telemetry();
}

VectorMachine::VectorMachine(VectorMachine&&) noexcept = default;
VectorMachine& VectorMachine::operator=(VectorMachine&&) noexcept = default;

void VectorMachine::flush_telemetry() const {
  telemetry::MetricsRegistry* r = telemetry::metrics();
  if (r == nullptr) return;
  r->add("vm.machines", 1);
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    const auto c = static_cast<OpClass>(i);
    if (cost_.instructions(c) == 0) continue;
    const std::string base = std::string("vm.op.") + op_class_name(c);
    r->add(base + ".instructions", cost_.instructions(c));
    r->add(base + ".elements", cost_.elements(c));
    r->time_add(base + ".wall_seconds", cost_.wall_seconds(c));
  }
  if (checker_ != nullptr) {
    const HazardReport& report = checker_->report();
    for (int k = 0; k <= static_cast<int>(HazardKind::kTheoremViolation);
         ++k) {
      const auto kind = static_cast<HazardKind>(k);
      const std::size_t n = report.count(kind);
      if (n != 0) {
        r->add(std::string("audit.hazard.") + hazard_kind_name(kind), n);
      }
    }
  }
  if (analyzer_ != nullptr) {
    const analysis::Analyzer::Stats& as = analyzer_->stats();
    if (as.mem_ops != 0) {
      r->add("analysis.ops", as.mem_ops);
      r->add("analysis.ops.proven_safe", as.mem_safe);
      r->add("analysis.ops.unknown", as.mem_unknown);
      r->add("analysis.ops.proven_hazard", as.mem_hazard);
      r->add("analysis.scatter.ops", as.scatter_ops);
      r->add("analysis.scatter.proven_safe", as.scatter_safe);
    }
    if (as.elided_instructions != 0) {
      r->add("analysis.elided.instructions", as.elided_instructions);
      r->add("analysis.elided.lanes", as.elided_lanes);
    }
    if (as.checked_instructions != 0) {
      r->add("analysis.checked.instructions", as.checked_instructions);
      r->add("analysis.checked.lanes", as.checked_lanes);
    }
    if (as.vetoed != 0) r->add("analysis.vetoed", as.vetoed);
  }
  // Buffer-pool behaviour is host allocator reuse, not machine semantics,
  // so it reports in the excluded-from-determinism "pool." namespace.
  const BufferPool::Stats& ps = pool_->stats();
  if (ps.acquires != 0) {
    r->add("pool.buffer.acquires", ps.acquires);
    r->add("pool.buffer.hits", ps.hits);
    r->add("pool.buffer.misses", ps.misses);
    r->add("pool.buffer.releases", ps.releases);
    r->add("pool.buffer.discards", ps.discards);
    r->observe("pool.buffer.peak_held_words", ps.peak_held_words);
    if (ps.fault_drops != 0) r->add("pool.buffer.fault_drops", ps.fault_drops);
  }
  // Backend identity lives in the excluded-from-determinism "backend."
  // namespace: it legitimately differs between serial and parallel runs.
  r->label("backend.name", backend_name());
  r->label("backend.requested", backend_kind_name(config_.backend));
  r->gauge_max("backend.workers",
               static_cast<std::int64_t>(backend_workers()));
  if (is_simd_kind(kind_)) {
    const char* level = backend_->kernels().name;
    r->label("backend.simd_level", level);
    r->add(std::string("backend.simd.dispatch.") + level, simd_dispatches_);
  }
  if (kind_ != config_.backend) {
    r->add("backend.pinned", 1);
    r->label("backend.pin_reason", "audit");
  }
}

const char* VectorMachine::backend_name() const {
  return backend_kind_name(kind_);
}

std::size_t VectorMachine::backend_workers() const {
  return backend_->workers();
}

SimdLevel VectorMachine::active_simd_level() const {
  return backend_->kernels().level;
}

const SimdKernels& VectorMachine::kernels() {
  if (is_simd_kind(kind_)) ++simd_dispatches_;
  return backend_->kernels();
}

const HazardReport& VectorMachine::hazards() const {
  static const HazardReport empty;
  return checker_ != nullptr ? checker_->report() : empty;
}

void VectorMachine::clear_hazards() {
  if (checker_ != nullptr) checker_->clear();
}

void VectorMachine::retire_work(std::span<const Word> region) {
  if (checker_ != nullptr) checker_->retire_work(region);
  if (analyzer_ != nullptr) analyzer_->on_retire_work(region);
}

void VectorMachine::set_source_line(std::size_t line) {
  if (analyzer_ != nullptr) analyzer_->set_line(line);
}

void VectorMachine::observe_range(std::span<const Word> v) {
  if (analyzer_ != nullptr) analyzer_->observe_range(v);
}

bool VectorMachine::elide_allowed() const {
  return analyzer_ != nullptr && checker_ != nullptr && config_.audit_elide &&
         faults() == nullptr;
}

void VectorMachine::run_lanes(OpClass c, std::size_t n, RangeFn kernel) {
  const OpTimer timer(cost_, c, n);
  issue(c, n);
  backend_->for_lanes(n, kernel);
}

// ---- vector generation -----------------------------------------------------

WordVec VectorMachine::iota(std::size_t n, Word start, Word step) {
  WordVec out;
  iota_into(out, n, start, step);
  return out;
}

void VectorMachine::iota_into(WordVec& out, std::size_t n, Word start,
                              Word step) {
  out.resize(n);
  Word* o = out.data();
  const auto k = kernels().iota;
  run_lanes(OpClass::kVectorArith, n, [&](std::size_t lo, std::size_t hi) {
    k(o, start, step, lo, hi);
  });
  if (analyzer_ != nullptr) {
    analyzer_->rec_gen(analysis::Opcode::kIota, out, start, step);
  }
}

WordVec VectorMachine::splat(std::size_t n, Word value) {
  WordVec out(n);
  Word* o = out.data();
  run_lanes(OpClass::kVectorArith, n, [&](std::size_t lo, std::size_t hi) {
    std::fill(o + lo, o + hi, value);
  });
  if (analyzer_ != nullptr) {
    analyzer_->rec_gen(analysis::Opcode::kSplat, out, value, 0);
  }
  return out;
}

WordVec VectorMachine::copy(std::span<const Word> v) {
  WordVec out;
  copy_into(out, v);
  return out;
}

void VectorMachine::copy_into(WordVec& out, std::span<const Word> v) {
  out.resize(v.size());
  Word* o = out.data();
  run_lanes(OpClass::kVectorLoad, v.size(),
            [&](std::size_t lo, std::size_t hi) {
              std::copy(v.begin() + static_cast<std::ptrdiff_t>(lo),
                        v.begin() + static_cast<std::ptrdiff_t>(hi), o + lo);
            });
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kCopy, out, v);
  }
}

WordVec VectorMachine::reverse(std::span<const Word> v) {
  WordVec out;
  reverse_into(out, v);
  return out;
}

void VectorMachine::reverse_into(WordVec& out, std::span<const Word> v) {
  const std::size_t n = v.size();
  out.resize(n);
  Word* o = out.data();
  run_lanes(OpClass::kVectorLoad, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) o[i] = v[n - 1 - i];
  });
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kReverse, out, v);
  }
}

// ---- elementwise arithmetic -------------------------------------------------

void VectorMachine::zip_into(WordVec& out, std::span<const Word> a,
                             std::span<const Word> b, SimdBinFn k) {
  FOLVEC_REQUIRE(a.size() == b.size(), "vector lengths must match");
  out.resize(a.size());
  Word* o = out.data();
  run_lanes(OpClass::kVectorArith, a.size(),
            [&](std::size_t lo, std::size_t hi) {
              k(o, a.data(), b.data(), lo, hi);
            });
}

WordVec VectorMachine::zip(std::span<const Word> a, std::span<const Word> b,
                           SimdBinFn k) {
  WordVec out;
  zip_into(out, a, b, k);
  return out;
}

void VectorMachine::map_into(WordVec& out, std::span<const Word> a,
                             SimdMapFn k, Word s) {
  out.resize(a.size());
  Word* o = out.data();
  run_lanes(OpClass::kVectorArith, a.size(),
            [&](std::size_t lo, std::size_t hi) { k(o, a.data(), s, lo, hi); });
}

WordVec VectorMachine::map(std::span<const Word> a, SimdMapFn k, Word s) {
  WordVec out;
  map_into(out, a, k, s);
  return out;
}

WordVec VectorMachine::add(std::span<const Word> a, std::span<const Word> b) {
  WordVec out = zip(a, b, kernels().add);
  if (analyzer_ != nullptr) {
    analyzer_->rec_binary(analysis::Opcode::kAdd, out, a, b);
  }
  return out;
}

void VectorMachine::add_into(WordVec& out, std::span<const Word> a,
                             std::span<const Word> b) {
  zip_into(out, a, b, kernels().add);
  if (analyzer_ != nullptr) {
    analyzer_->rec_binary(analysis::Opcode::kAdd, out, a, b);
  }
}

void VectorMachine::add_scalar_into(WordVec& out, std::span<const Word> a,
                                    Word s) {
  map_into(out, a, kernels().add_s, s);
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kAddScalar, out, a, s);
  }
}

WordVec VectorMachine::sub(std::span<const Word> a, std::span<const Word> b) {
  WordVec out = zip(a, b, kernels().sub);
  if (analyzer_ != nullptr) {
    analyzer_->rec_binary(analysis::Opcode::kSub, out, a, b);
  }
  return out;
}

WordVec VectorMachine::mul(std::span<const Word> a, std::span<const Word> b) {
  WordVec out = zip(a, b, kernels().mul);
  if (analyzer_ != nullptr) {
    analyzer_->rec_binary(analysis::Opcode::kMul, out, a, b);
  }
  return out;
}

WordVec VectorMachine::add_scalar(std::span<const Word> a, Word s) {
  WordVec out = map(a, kernels().add_s, s);
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kAddScalar, out, a, s);
  }
  return out;
}

WordVec VectorMachine::mul_scalar(std::span<const Word> a, Word s) {
  WordVec out = map(a, kernels().mul_s, s);
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kMulScalar, out, a, s);
  }
  return out;
}

void VectorMachine::mul_scalar_into(WordVec& out, std::span<const Word> a,
                                    Word s) {
  map_into(out, a, kernels().mul_s, s);
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kMulScalar, out, a, s);
  }
}

WordVec VectorMachine::div_scalar(std::span<const Word> a, Word s) {
  WordVec out;
  div_scalar_into(out, a, s);
  return out;
}

void VectorMachine::div_scalar_into(WordVec& out, std::span<const Word> a,
                                    Word s) {
  FOLVEC_REQUIRE(s > 0, "div_scalar needs a positive divisor");
  out.resize(a.size());
  Word* o = out.data();
  const auto k = kernels().div_s;
  run_lanes(OpClass::kVectorDiv, a.size(),
            [&](std::size_t lo, std::size_t hi) { k(o, a.data(), s, lo, hi); });
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kDivScalar, out, a, s);
  }
}

WordVec VectorMachine::mod_scalar(std::span<const Word> a, Word s) {
  WordVec out;
  mod_scalar_into(out, a, s);
  return out;
}

void VectorMachine::mod_scalar_into(WordVec& out, std::span<const Word> a,
                                    Word s) {
  FOLVEC_REQUIRE(s > 0, "mod_scalar needs a positive modulus");
  out.resize(a.size());
  Word* o = out.data();
  const auto k = kernels().mod_s;
  run_lanes(OpClass::kVectorDiv, a.size(),
            [&](std::size_t lo, std::size_t hi) { k(o, a.data(), s, lo, hi); });
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kModScalar, out, a, s);
  }
}

WordVec VectorMachine::and_scalar(std::span<const Word> a, Word s) {
  WordVec out;
  and_scalar_into(out, a, s);
  return out;
}

void VectorMachine::and_scalar_into(WordVec& out, std::span<const Word> a,
                                    Word s) {
  map_into(out, a, kernels().and_s, s);
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kAndScalar, out, a, s);
  }
}

WordVec VectorMachine::or_scalar(std::span<const Word> a, Word s) {
  WordVec out = map(a, kernels().or_s, s);
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kOrScalar, out, a, s);
  }
  return out;
}

WordVec VectorMachine::shl_scalar(std::span<const Word> a, int k) {
  FOLVEC_REQUIRE(k >= 0 && k < 64, "shift amount out of range");
  WordVec out(a.size());
  Word* o = out.data();
  run_lanes(OpClass::kVectorArith, a.size(),
            [&](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                FOLVEC_REQUIRE(a[i] >= 0,
                               "shl_scalar needs non-negative elements");
                o[i] = static_cast<Word>(static_cast<std::uint64_t>(a[i]) << k);
              }
            });
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kShlScalar, out, a, k);
  }
  return out;
}

WordVec VectorMachine::shr_scalar(std::span<const Word> a, int k) {
  WordVec out;
  shr_scalar_into(out, a, k);
  return out;
}

void VectorMachine::shr_scalar_into(WordVec& out, std::span<const Word> a,
                                    int k) {
  FOLVEC_REQUIRE(k >= 0 && k < 64, "shift amount out of range");
  map_into(out, a, kernels().shr_s, static_cast<Word>(k));
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kShrScalar, out, a, k);
  }
}

WordVec VectorMachine::negate(std::span<const Word> a) {
  WordVec out = map(a, kernels().neg, 0);
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kNegate, out, a);
  }
  return out;
}

void VectorMachine::negate_into(WordVec& out, std::span<const Word> a) {
  map_into(out, a, kernels().neg, 0);
  if (analyzer_ != nullptr) {
    analyzer_->rec_unary(analysis::Opcode::kNegate, out, a);
  }
}

// ---- compares ---------------------------------------------------------------

Mask VectorMachine::cmp(std::span<const Word> a, std::span<const Word> b,
                        SimdCmpFn k) {
  Mask out;
  cmp_into(out, a, b, k);
  return out;
}

void VectorMachine::cmp_into(Mask& out, std::span<const Word> a,
                             std::span<const Word> b, SimdCmpFn k) {
  FOLVEC_REQUIRE(a.size() == b.size(), "vector lengths must match");
  out.resize(a.size());
  std::uint8_t* o = out.data();
  run_lanes(OpClass::kVectorCompare, a.size(),
            [&](std::size_t lo, std::size_t hi) {
              k(o, a.data(), b.data(), lo, hi);
            });
}

Mask VectorMachine::cmp_scalar(std::span<const Word> a, SimdCmpSFn k,
                               Word s) {
  Mask out;
  cmp_scalar_into(out, a, k, s);
  return out;
}

void VectorMachine::cmp_scalar_into(Mask& out, std::span<const Word> a,
                                    SimdCmpSFn k, Word s) {
  out.resize(a.size());
  std::uint8_t* o = out.data();
  run_lanes(OpClass::kVectorCompare, a.size(),
            [&](std::size_t lo, std::size_t hi) { k(o, a.data(), s, lo, hi); });
}

void VectorMachine::rec_cmp(analysis::Opcode op, const Mask& out,
                            std::span<const Word> a, std::span<const Word> b,
                            Word s) {
  if (analyzer_ != nullptr) analyzer_->rec_cmp(op, out.bytes(), a, b, s);
}

Mask VectorMachine::eq(std::span<const Word> a, std::span<const Word> b) {
  Mask out = cmp(a, b, kernels().cmp_eq);
  rec_cmp(analysis::Opcode::kCmpEq, out, a, b, 0);
  return out;
}

void VectorMachine::eq_into(Mask& out, std::span<const Word> a,
                            std::span<const Word> b) {
  cmp_into(out, a, b, kernels().cmp_eq);
  rec_cmp(analysis::Opcode::kCmpEq, out, a, b, 0);
}

Mask VectorMachine::ne(std::span<const Word> a, std::span<const Word> b) {
  Mask out = cmp(a, b, kernels().cmp_ne);
  rec_cmp(analysis::Opcode::kCmpNe, out, a, b, 0);
  return out;
}

Mask VectorMachine::le(std::span<const Word> a, std::span<const Word> b) {
  Mask out = cmp(a, b, kernels().cmp_le);
  rec_cmp(analysis::Opcode::kCmpLe, out, a, b, 0);
  return out;
}

Mask VectorMachine::lt(std::span<const Word> a, std::span<const Word> b) {
  Mask out = cmp(a, b, kernels().cmp_lt);
  rec_cmp(analysis::Opcode::kCmpLt, out, a, b, 0);
  return out;
}

Mask VectorMachine::eq_scalar(std::span<const Word> a, Word s) {
  Mask out = cmp_scalar(a, kernels().cmp_eq_s, s);
  rec_cmp(analysis::Opcode::kCmpEqScalar, out, a, {}, s);
  return out;
}

Mask VectorMachine::ne_scalar(std::span<const Word> a, Word s) {
  Mask out = cmp_scalar(a, kernels().cmp_ne_s, s);
  rec_cmp(analysis::Opcode::kCmpNeScalar, out, a, {}, s);
  return out;
}

void VectorMachine::ne_scalar_into(Mask& out, std::span<const Word> a,
                                   Word s) {
  cmp_scalar_into(out, a, kernels().cmp_ne_s, s);
  rec_cmp(analysis::Opcode::kCmpNeScalar, out, a, {}, s);
}

Mask VectorMachine::le_scalar(std::span<const Word> a, Word s) {
  Mask out = cmp_scalar(a, kernels().cmp_le_s, s);
  rec_cmp(analysis::Opcode::kCmpLeScalar, out, a, {}, s);
  return out;
}

Mask VectorMachine::lt_scalar(std::span<const Word> a, Word s) {
  Mask out = cmp_scalar(a, kernels().cmp_lt_s, s);
  rec_cmp(analysis::Opcode::kCmpLtScalar, out, a, {}, s);
  return out;
}

Mask VectorMachine::ge_scalar(std::span<const Word> a, Word s) {
  Mask out = cmp_scalar(a, kernels().cmp_ge_s, s);
  rec_cmp(analysis::Opcode::kCmpGeScalar, out, a, {}, s);
  return out;
}

// ---- mask algebra -------------------------------------------------------------

Mask VectorMachine::mask_and(const Mask& a, const Mask& b) {
  Mask out;
  mask_and_into(out, a, b);
  return out;
}

void VectorMachine::mask_and_into(Mask& out, const Mask& a, const Mask& b) {
  FOLVEC_REQUIRE(a.size() == b.size(), "mask lengths must match");
  out.resize(a.size());
  std::uint8_t* o = out.data();
  const auto k = kernels().mask_and;
  run_lanes(OpClass::kVectorMask, a.size(),
            [&](std::size_t lo, std::size_t hi) {
              k(o, a.data(), b.data(), lo, hi);
            });
  if (analyzer_ != nullptr) {
    analyzer_->rec_mask2(analysis::Opcode::kMaskAnd, out.bytes(), a.bytes(),
                         b.bytes());
  }
}

Mask VectorMachine::mask_or(const Mask& a, const Mask& b) {
  FOLVEC_REQUIRE(a.size() == b.size(), "mask lengths must match");
  Mask out(a.size());
  std::uint8_t* o = out.data();
  const auto k = kernels().mask_or;
  run_lanes(OpClass::kVectorMask, a.size(),
            [&](std::size_t lo, std::size_t hi) {
              k(o, a.data(), b.data(), lo, hi);
            });
  if (analyzer_ != nullptr) {
    analyzer_->rec_mask2(analysis::Opcode::kMaskOr, out.bytes(), a.bytes(), b.bytes());
  }
  return out;
}

Mask VectorMachine::mask_not(const Mask& a) {
  Mask out(a.size());
  std::uint8_t* o = out.data();
  const auto k = kernels().mask_not;
  run_lanes(OpClass::kVectorMask, a.size(),
            [&](std::size_t lo, std::size_t hi) { k(o, a.data(), lo, hi); });
  if (analyzer_ != nullptr) {
    analyzer_->rec_mask2(analysis::Opcode::kMaskNot, out.bytes(), a.bytes(), {});
  }
  return out;
}

std::size_t VectorMachine::count_true(const Mask& m) {
  // count_true always charges its kVectorReduce chime — the modeled machine
  // still runs the instruction — but the host scan is skipped whenever the
  // mask already carries its popcount (and the result is cached for the
  // compress / partition sizing that usually follows).
  const OpTimer timer(cost_, OpClass::kVectorReduce, m.size());
  issue(OpClass::kVectorReduce, m.size());
  if (!m.has_popcount()) m.set_popcount(backend_->count_true(m));
  if (analyzer_ != nullptr) analyzer_->rec_count_true(m.bytes());
  return m.popcount();
}

// ---- reductions ---------------------------------------------------------------

Word VectorMachine::reduce_sum(std::span<const Word> v) {
  const OpTimer timer(cost_, OpClass::kVectorReduce, v.size());
  issue(OpClass::kVectorReduce, v.size());
  if (analyzer_ != nullptr) {
    analyzer_->rec_reduce(analysis::Opcode::kReduceSum, v);
  }
  return backend_->reduce_sum(v);
}

Word VectorMachine::reduce_min(std::span<const Word> v) {
  FOLVEC_REQUIRE(!v.empty(), "reduce_min needs a nonempty vector");
  const OpTimer timer(cost_, OpClass::kVectorReduce, v.size());
  issue(OpClass::kVectorReduce, v.size());
  if (analyzer_ != nullptr) {
    analyzer_->rec_reduce(analysis::Opcode::kReduceMin, v);
  }
  return backend_->reduce_min(v);
}

Word VectorMachine::reduce_max(std::span<const Word> v) {
  FOLVEC_REQUIRE(!v.empty(), "reduce_max needs a nonempty vector");
  const OpTimer timer(cost_, OpClass::kVectorReduce, v.size());
  issue(OpClass::kVectorReduce, v.size());
  if (analyzer_ != nullptr) {
    analyzer_->rec_reduce(analysis::Opcode::kReduceMax, v);
  }
  return backend_->reduce_max(v);
}

// ---- selection -----------------------------------------------------------------

WordVec VectorMachine::compress(std::span<const Word> v, const Mask& m) {
  WordVec out;
  compress_into(out, v, m);
  return out;
}

std::size_t VectorMachine::compress_into(WordVec& out, std::span<const Word> v,
                                         const Mask& m) {
  FOLVEC_REQUIRE(v.size() == m.size(), "value/mask lengths must match");
  const OpTimer timer(cost_, OpClass::kVectorCompress, v.size());
  issue(OpClass::kVectorCompress, v.size());
  const std::size_t nt = m.popcount();
  out.resize(nt);
  backend_->compress_into(v, m, out);
  if (analyzer_ != nullptr) analyzer_->rec_compress(out, v, m.bytes());
  return nt;
}

WordVec VectorMachine::select(const Mask& m, std::span<const Word> a,
                              std::span<const Word> b) {
  WordVec out;
  select_into(out, m, a, b);
  return out;
}

void VectorMachine::select_into(WordVec& out, const Mask& m,
                                std::span<const Word> a,
                                std::span<const Word> b) {
  FOLVEC_REQUIRE(a.size() == b.size() && a.size() == m.size(),
                 "select operand lengths must match");
  out.resize(a.size());
  Word* o = out.data();
  const auto k = kernels().select;
  run_lanes(OpClass::kVectorArith, a.size(),
            [&](std::size_t lo, std::size_t hi) {
              k(o, m.data(), a.data(), b.data(), lo, hi);
            });
  if (analyzer_ != nullptr) analyzer_->rec_select(out, m.bytes(), a, b);
}

WordVec VectorMachine::from_mask(const Mask& m) {
  WordVec out(m.size());
  Word* o = out.data();
  const auto k = kernels().from_mask;
  run_lanes(OpClass::kVectorArith, m.size(),
            [&](std::size_t lo, std::size_t hi) { k(o, m.data(), lo, hi); });
  if (analyzer_ != nullptr) analyzer_->rec_from_mask(out, m.bytes());
  return out;
}

// ---- memory: contiguous ----------------------------------------------------------

void VectorMachine::store(std::span<Word> table, std::size_t offset,
                          std::span<const Word> v) {
  // Subtraction form: `offset + v.size() <= table.size()` wraps for huge
  // offsets and would wave the store through.
  FOLVEC_REQUIRE(offset <= table.size() && v.size() <= table.size() - offset,
                 "contiguous store out of bounds");
  if (checker_ != nullptr) checker_->on_overwrite(table.data() + offset, v.size());
  Word* dst = table.data() + offset;
  run_lanes(OpClass::kVectorStore, v.size(),
            [&](std::size_t lo, std::size_t hi) {
              std::copy(v.begin() + static_cast<std::ptrdiff_t>(lo),
                        v.begin() + static_cast<std::ptrdiff_t>(hi), dst + lo);
            });
  if (analyzer_ != nullptr) {
    analyzer_->rec_store(analysis::Opcode::kStore, table, dst, v.size(), 1);
  }
}

void VectorMachine::fill(std::span<Word> table, Word value) {
  if (checker_ != nullptr) checker_->on_overwrite(table.data(), table.size());
  Word* dst = table.data();
  run_lanes(OpClass::kVectorStore, table.size(),
            [&](std::size_t lo, std::size_t hi) {
              std::fill(dst + lo, dst + hi, value);
            });
  if (analyzer_ != nullptr) {
    analyzer_->rec_store(analysis::Opcode::kFill, table, dst, table.size(), 1);
  }
}

WordVec VectorMachine::load(std::span<const Word> table, std::size_t offset,
                            std::size_t n) {
  FOLVEC_REQUIRE(offset <= table.size() && n <= table.size() - offset,
                 "contiguous load out of bounds");
  if (checker_ != nullptr) checker_->on_contiguous_read(table, offset, n);
  WordVec out(n);
  Word* o = out.data();
  const Word* src = table.data() + offset;
  run_lanes(OpClass::kVectorLoad, n, [&](std::size_t lo, std::size_t hi) {
    std::copy(src + lo, src + hi, o + lo);
  });
  if (analyzer_ != nullptr) {
    analyzer_->rec_load(analysis::Opcode::kLoad, out, table);
  }
  return out;
}

WordVec VectorMachine::load_strided(std::span<const Word> table,
                                    std::size_t offset, std::size_t stride,
                                    std::size_t n) {
  FOLVEC_REQUIRE(stride > 0, "stride must be positive");
  // Division form: `offset + (n-1)*stride` wraps for huge offsets/strides.
  FOLVEC_REQUIRE(n == 0 || (offset < table.size() &&
                            (table.size() - 1 - offset) / stride >= n - 1),
                 "strided load out of bounds");
  WordVec out(n);
  Word* o = out.data();
  const auto k = kernels().load_strided;
  run_lanes(OpClass::kVectorLoad, n, [&](std::size_t lo, std::size_t hi) {
    k(o, table.data(), offset, stride, lo, hi);
  });
  if (analyzer_ != nullptr) {
    analyzer_->rec_load(analysis::Opcode::kLoadStrided, out, table);
  }
  return out;
}

void VectorMachine::store_strided(std::span<Word> table, std::size_t offset,
                                  std::size_t stride,
                                  std::span<const Word> v) {
  FOLVEC_REQUIRE(stride > 0, "stride must be positive");
  FOLVEC_REQUIRE(
      v.empty() || (offset < table.size() &&
                    (table.size() - 1 - offset) / stride >= v.size() - 1),
      "strided store out of bounds");
  if (checker_ != nullptr) {
    checker_->on_overwrite(table.data() + offset, v.size(), stride);
  }
  run_lanes(OpClass::kVectorStore, v.size(),
            [&](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                table[offset + i * stride] = v[i];
              }
            });
  if (analyzer_ != nullptr) {
    analyzer_->rec_store(analysis::Opcode::kStoreStrided, table,
                         table.data() + offset, v.size(), stride);
  }
}

// ---- memory: list vector -----------------------------------------------------------

void VectorMachine::check_indices(std::span<const Word> idx,
                                  std::size_t table_size, const Mask* mask) {
  const std::uint8_t* m = mask != nullptr ? mask->data() : nullptr;
  FOLVEC_REQUIRE(backend_->first_oob(idx, table_size, m) == Backend::npos,
                 "list-vector index out of bounds");
}

WordVec VectorMachine::gather(std::span<const Word> table,
                              std::span<const Word> idx) {
  WordVec out;
  gather_into(out, table, idx);
  return out;
}

void VectorMachine::gather_into(WordVec& out, std::span<const Word> table,
                                std::span<const Word> idx) {
  analysis::OpVerdicts sv;
  bool elide = false;
  if (analyzer_ != nullptr) {
    sv = analyzer_->classify_gather(table, idx, /*masked=*/false);
    if (analyzer_->veto() &&
        sv[analysis::HazardClass::kBounds] == analysis::Verdict::kProvenHazard) {
      // Lint dry mode: a proven out-of-bounds gather is not executed; the
      // output is defined as zeros so analysis can continue past it.
      analyzer_->note_vetoed();
      out.assign(idx.size(), 0);
      analyzer_->rec_gather(out, table, idx, {}, sv, /*elided=*/false);
      return;
    }
    elide = elide_allowed() && sv.all_safe();
  }
  if (checker_ != nullptr) {
    if (elide) {
      analyzer_->note_elided(idx.size());
    } else {
      if (analyzer_ != nullptr) analyzer_->note_checked(idx.size());
      checker_->on_gather(table, idx, nullptr);
    }
  }
  check_indices(idx, table.size());
  out.resize(idx.size());
  Word* o = out.data();
  const auto k = kernels().gather;
  run_lanes(OpClass::kVectorGather, idx.size(),
            [&](std::size_t lo, std::size_t hi) {
              k(o, table.data(), idx.data(), lo, hi);
            });
  if (analyzer_ != nullptr) analyzer_->rec_gather(out, table, idx, {}, sv, elide);
}

WordVec VectorMachine::gather_masked(std::span<const Word> table,
                                     std::span<const Word> idx, const Mask& m,
                                     Word fill) {
  analysis::OpVerdicts sv;
  bool elide = false;
  if (analyzer_ != nullptr) {
    sv = analyzer_->classify_gather(table, idx, /*masked=*/true);
    elide = elide_allowed() && sv.all_safe();
  }
  if (checker_ != nullptr) {
    if (elide) {
      analyzer_->note_elided(idx.size());
    } else {
      if (analyzer_ != nullptr) analyzer_->note_checked(idx.size());
      checker_->on_gather(table, idx, &m);
    }
  }
  FOLVEC_REQUIRE(idx.size() == m.size(), "index/mask lengths must match");
  check_indices(idx, table.size(), &m);
  WordVec out(idx.size(), fill);
  Word* o = out.data();
  const auto k = kernels().gather_masked;
  run_lanes(OpClass::kVectorGather, idx.size(),
            [&](std::size_t lo, std::size_t hi) {
              k(o, table.data(), idx.data(), m.data(), lo, hi);
            });
  if (analyzer_ != nullptr) analyzer_->rec_gather(out, table, idx, m.bytes(), sv, elide);
  return out;
}

std::vector<std::size_t> VectorMachine::shuffled_lane_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  shuffle(order, shuffle_rng_);
  return order;
}

void VectorMachine::dispatch_scatter(std::span<Word> table,
                                     std::span<const Word> idx,
                                     std::span<const Word> vals,
                                     const Mask* mask) {
  const std::uint8_t* m = mask != nullptr ? mask->data() : nullptr;
  switch (config_.scatter_order) {
    case ScatterOrder::kForward:
      backend_->scatter(table, idx, vals, m, ScatterTraversal::kForward, {});
      break;
    case ScatterOrder::kReverse:
      backend_->scatter(table, idx, vals, m, ScatterTraversal::kReverse, {});
      break;
    case ScatterOrder::kShuffled: {
      // The permutation is drawn from the machine's RNG on the issuing
      // thread, so it is identical for every backend and worker count.
      const std::vector<std::size_t> order = shuffled_lane_order(idx.size());
      backend_->scatter(table, idx, vals, m, ScatterTraversal::kExplicit,
                        order);
      break;
    }
  }
}

void VectorMachine::amalgam_scatter(std::span<Word> table,
                                    std::span<const Word> idx,
                                    std::span<const Word> vals) {
  // Failure injection: a contested address receives an "amalgam" — a mix
  // of the colliding values that is (in general) equal to none of them,
  // exactly what the ELS condition forbids. Singleton writes stay intact.
  // One hash-map pass per instruction; the amalgam of an address is the
  // XOR over every colliding lane, so the result is byte-identical to the
  // old per-lane-pair quadratic scan. Always computed on the issuing
  // thread, so the injected image is identical for every backend.
  std::unordered_map<Word, std::pair<std::size_t, Word>> per_addr;
  per_addr.reserve(idx.size());
  for (std::size_t lane = 0; lane < idx.size(); ++lane) {
    auto& [collisions, amalgam] = per_addr[idx[lane]];
    ++collisions;
    amalgam ^= vals[lane] + 1;
  }
  for (std::size_t lane = 0; lane < idx.size(); ++lane) {
    const auto& [collisions, amalgam] = per_addr.find(idx[lane])->second;
    table[static_cast<std::size_t>(idx[lane])] =
        collisions > 1 ? amalgam : vals[lane];
  }
}

bool VectorMachine::els_fault_fires() {
  FaultPlan* plan = faults();
  if (plan == nullptr || !plan->fires(FaultSite::kElsViolation)) return false;
  telemetry::count("fault.injected.els");
  return true;
}

bool VectorMachine::try_elide_scatter(std::span<const Word> table,
                                      std::span<const Word> idx,
                                      const analysis::OpVerdicts& sv,
                                      bool masked) {
  if (!elide_allowed() || !sv.all_safe()) return false;
  Word lo = 0;
  Word hi = 0;
  bool exact = false;
  if (!analyzer_->proven_index_range(idx, table.size(), &lo, &hi, &exact)) {
    return false;
  }
  // A masked scatter skips inactive lanes, so even a range-covering index
  // vector does not provably overwrite every address in [lo, hi].
  checker_->on_scatter_elided(table, lo, hi, exact && !masked);
  analyzer_->note_elided(idx.size());
  return true;
}

void VectorMachine::scatter(std::span<Word> table, std::span<const Word> idx,
                            std::span<const Word> vals) {
  analysis::OpVerdicts sv;
  bool elide = false;
  if (analyzer_ != nullptr) {
    sv = analyzer_->classify_scatter(table, idx, vals, /*masked=*/false,
                                     /*ordered=*/false);
    if (analyzer_->veto() &&
        sv[analysis::HazardClass::kBounds] == analysis::Verdict::kProvenHazard) {
      analyzer_->note_vetoed();
      analyzer_->rec_scatter(table, idx, vals, {}, /*ordered=*/false, sv,
                             /*elided=*/false, /*executed=*/false);
      return;
    }
  }
  if (checker_ != nullptr) {
    elide = try_elide_scatter(table, idx, sv, /*masked=*/false);
    if (!elide) {
      if (analyzer_ != nullptr) analyzer_->note_checked(idx.size());
      checker_->on_scatter(table, idx, vals, nullptr, /*ordered=*/false);
    }
  }
  FOLVEC_REQUIRE(idx.size() == vals.size(), "index/value lengths must match");
  check_indices(idx, table.size());
  const OpTimer timer(cost_, OpClass::kVectorScatter, idx.size());
  issue(OpClass::kVectorScatter, idx.size());
  // Exactly one kElsViolation draw per unmasked scatter-class instruction
  // (this is the composition's one scatter); a fired instruction consumes no
  // shuffle draw, in fused and unfused mode alike, so the RNG streams stay
  // aligned.
  if (els_fault_fires()) {
    amalgam_scatter(table, idx, vals);
    if (analyzer_ != nullptr) {
      analyzer_->rec_scatter(table, idx, vals, {}, /*ordered=*/false, sv,
                             elide);
    }
    return;
  }
  dispatch_scatter(table, idx, vals, nullptr);
  if (analyzer_ != nullptr) {
    analyzer_->rec_scatter(table, idx, vals, {}, /*ordered=*/false, sv, elide);
  }
}

void VectorMachine::scatter_masked(std::span<Word> table,
                                   std::span<const Word> idx,
                                   std::span<const Word> vals, const Mask& m) {
  analysis::OpVerdicts sv;
  bool elide = false;
  if (analyzer_ != nullptr) {
    sv = analyzer_->classify_scatter(table, idx, vals, /*masked=*/true,
                                     /*ordered=*/false);
  }
  if (checker_ != nullptr) {
    // An all-safe masked verdict required the all-lane range proof (the
    // mask never weakens the bounds judge), so the elided range is valid.
    elide = try_elide_scatter(table, idx, sv, /*masked=*/true);
    if (!elide) {
      if (analyzer_ != nullptr) analyzer_->note_checked(idx.size());
      checker_->on_scatter(table, idx, vals, &m, /*ordered=*/false);
    }
  }
  FOLVEC_REQUIRE(idx.size() == vals.size() && idx.size() == m.size(),
                 "index/value/mask lengths must match");
  // Inactive lanes do not access memory, so (like gather_masked) their
  // indices may be arbitrary and are not bounds-checked.
  check_indices(idx, table.size(), &m);
  const OpTimer timer(cost_, OpClass::kVectorScatter, idx.size());
  issue(OpClass::kVectorScatter, idx.size());
  dispatch_scatter(table, idx, vals, &m);
  if (analyzer_ != nullptr) {
    analyzer_->rec_scatter(table, idx, vals, m.bytes(), /*ordered=*/false, sv, elide);
  }
}

void VectorMachine::scatter_ordered(std::span<Word> table,
                                    std::span<const Word> idx,
                                    std::span<const Word> vals) {
  analysis::OpVerdicts sv;
  bool elide = false;
  if (analyzer_ != nullptr) {
    sv = analyzer_->classify_scatter(table, idx, vals, /*masked=*/false,
                                     /*ordered=*/true);
    if (analyzer_->veto() &&
        sv[analysis::HazardClass::kBounds] == analysis::Verdict::kProvenHazard) {
      analyzer_->note_vetoed();
      analyzer_->rec_scatter(table, idx, vals, {}, /*ordered=*/true, sv,
                             /*elided=*/false, /*executed=*/false);
      return;
    }
  }
  if (checker_ != nullptr) {
    elide = try_elide_scatter(table, idx, sv, /*masked=*/false);
    if (!elide) {
      if (analyzer_ != nullptr) analyzer_->note_checked(idx.size());
      checker_->on_scatter(table, idx, vals, nullptr, /*ordered=*/true);
    }
  }
  FOLVEC_REQUIRE(idx.size() == vals.size(), "index/value lengths must match");
  check_indices(idx, table.size());
  const OpTimer timer(cost_, OpClass::kVectorScatterOrdered, idx.size());
  issue(OpClass::kVectorScatterOrdered, idx.size());
  // VSTX semantics: lane i completes before lane i+1, independent of the
  // configured ELS order.
  backend_->scatter(table, idx, vals, nullptr, ScatterTraversal::kForward,
                    {});
  if (analyzer_ != nullptr) {
    analyzer_->rec_scatter(table, idx, vals, {}, /*ordered=*/true, sv, elide);
  }
}

void VectorMachine::scalar_store(std::span<Word> table, std::size_t pos,
                                 Word value) {
  FOLVEC_REQUIRE(pos < table.size(), "scalar store out of bounds");
  if (checker_ != nullptr) checker_->on_scalar_store(table, pos, value);
  issue(OpClass::kScalarMem, 1);
  table[pos] = value;
  if (analyzer_ != nullptr) analyzer_->rec_scalar_store(table, pos);
}

// ---- fused kernels ----------------------------------------------------------

ScatterTraversal VectorMachine::resolve_scatter_order(
    std::size_t n, std::vector<std::size_t>& order) {
  switch (config_.scatter_order) {
    case ScatterOrder::kForward:
      return ScatterTraversal::kForward;
    case ScatterOrder::kReverse:
      return ScatterTraversal::kReverse;
    case ScatterOrder::kShuffled:
      break;
  }
  // Drawn on the issuing thread, one draw per scatter-class instruction —
  // the fused kernel consumes exactly the draw its composition's one
  // scatter would, so fused and unfused runs see identical RNG streams.
  order = shuffled_lane_order(n);
  return ScatterTraversal::kExplicit;
}

void VectorMachine::fused_scatter_gather_eq(Mask& out, std::span<Word> table,
                                            std::span<const Word> idx,
                                            std::span<const Word> vals,
                                            const Mask* active, bool elide) {
  const std::size_t n = idx.size();
  const OpTimer timer(cost_, OpClass::kVectorScatterGatherEq, n);
  issue(OpClass::kVectorScatterGatherEq, n);
  std::vector<std::size_t> order;
  const ScatterTraversal traversal = resolve_scatter_order(n, order);

  // Runs once between the scatter and readback passes, on the issuing
  // thread. The masked form must bounds-check ALL lanes here — its readback
  // gathers inactive lanes too, and the composition faults at the gather,
  // i.e. with the scatter already applied. The audit probe sits at the same
  // point so ScatterCheck sees scatter-then-gather exactly like the
  // composition.
  struct BetweenPasses {
    VectorMachine* m;
    std::span<Word> table;
    std::span<const Word> idx;
    bool recheck_all_lanes;
    bool audit_probe;
  } hook{this, table, idx, active != nullptr, !elide && checker_ != nullptr};
  const auto probe = [](void* ctx) {
    auto* h = static_cast<BetweenPasses*>(ctx);
    if (h->recheck_all_lanes) h->m->check_indices(h->idx, h->table.size());
    if (h->audit_probe) {
      h->m->checker_->on_gather(h->table, h->idx, nullptr);
    }
  };
  const bool need_probe = hook.recheck_all_lanes || hook.audit_probe;

  out.resize(n);
  const std::size_t survivors = backend_->scatter_gather_eq(
      table, idx, vals, active != nullptr ? active->data() : nullptr,
      traversal, order, std::span<std::uint8_t>(out.data(), n),
      need_probe ? +probe : nullptr, &hook);
  out.set_popcount(survivors);
  if (telemetry::MetricsRegistry* r = telemetry::metrics()) {
    r->add("fused.sge", 1);
    r->add("fused.sge.lanes", n);
  }
}

Mask VectorMachine::scatter_gather_eq(std::span<Word> table,
                                      std::span<const Word> idx,
                                      std::span<const Word> vals) {
  Mask out;
  scatter_gather_eq_into(out, table, idx, vals);
  return out;
}

void VectorMachine::scatter_gather_eq_into(Mask& out, std::span<Word> table,
                                           std::span<const Word> idx,
                                           std::span<const Word> vals) {
  if (!config_.fuse) {
    scatter(table, idx, vals);
    const WordVec readback = gather(table, idx);
    out = eq(readback, vals);
    return;
  }
  analysis::OpVerdicts sv;
  bool elide = false;
  if (analyzer_ != nullptr) {
    sv = analyzer_->classify_sge(table, idx, vals, /*masked=*/false);
    if (analyzer_->veto() &&
        sv[analysis::HazardClass::kBounds] == analysis::Verdict::kProvenHazard) {
      analyzer_->note_vetoed();
      out = Mask(idx.size());
      analyzer_->rec_sge(out.bytes(), table, idx, vals, {}, sv, /*elided=*/false,
                         /*executed=*/false);
      return;
    }
  }
  if (checker_ != nullptr) {
    elide = try_elide_scatter(table, idx, sv, /*masked=*/false);
    if (!elide) {
      if (analyzer_ != nullptr) analyzer_->note_checked(idx.size());
      checker_->on_scatter(table, idx, vals, nullptr, /*ordered=*/false);
    }
  }
  FOLVEC_REQUIRE(idx.size() == vals.size(), "index/value lengths must match");
  check_indices(idx, table.size());
  // The fused kernel's one kElsViolation draw — the same single draw the
  // composition's scatter would consume, so fused and unfused runs under
  // one FaultPlan make identical decisions. A fired instruction still
  // issues (and is timed as) one fused op: the injected image corrupts
  // memory, not the modeled pipeline.
  if (els_fault_fires()) {
    const std::size_t n = idx.size();
    const OpTimer timer(cost_, OpClass::kVectorScatterGatherEq, n);
    issue(OpClass::kVectorScatterGatherEq, n);
    amalgam_scatter(table, idx, vals);
    if (checker_ != nullptr) checker_->on_gather(table, idx, nullptr);
    out.resize(n);
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t bit =
          table[static_cast<std::size_t>(idx[i])] == vals[i] ? 1 : 0;
      out.data()[i] = bit;
      survivors += bit;
    }
    out.set_popcount(survivors);
    if (telemetry::MetricsRegistry* r = telemetry::metrics()) {
      r->add("fused.sge", 1);
      r->add("fused.sge.lanes", n);
    }
    if (analyzer_ != nullptr) {
      analyzer_->rec_sge(out.bytes(), table, idx, vals, {}, sv, /*elided=*/false);
    }
    return;
  }
  fused_scatter_gather_eq(out, table, idx, vals, nullptr, elide);
  if (analyzer_ != nullptr) {
    analyzer_->rec_sge(out.bytes(), table, idx, vals, {}, sv, elide);
  }
}

Mask VectorMachine::scatter_gather_eq_masked(std::span<Word> table,
                                             std::span<const Word> idx,
                                             std::span<const Word> vals,
                                             const Mask& active) {
  if (!config_.fuse) {
    scatter_masked(table, idx, vals, active);
    const WordVec readback = gather(table, idx);
    return mask_and(eq(readback, vals), active);
  }
  analysis::OpVerdicts sv;
  bool elide = false;
  if (analyzer_ != nullptr) {
    sv = analyzer_->classify_sge(table, idx, vals, /*masked=*/true);
    if (analyzer_->veto() &&
        sv[analysis::HazardClass::kBounds] == analysis::Verdict::kProvenHazard) {
      analyzer_->note_vetoed();
      Mask vetoed(idx.size());
      analyzer_->rec_sge(vetoed.bytes(), table, idx, vals, active.bytes(), sv,
                         /*elided=*/false, /*executed=*/false);
      return vetoed;
    }
  }
  if (checker_ != nullptr) {
    elide = try_elide_scatter(table, idx, sv, /*masked=*/true);
    if (!elide) {
      if (analyzer_ != nullptr) analyzer_->note_checked(idx.size());
      checker_->on_scatter(table, idx, vals, &active, /*ordered=*/false);
    }
  }
  FOLVEC_REQUIRE(idx.size() == vals.size() && idx.size() == active.size(),
                 "index/value/mask lengths must match");
  // Like scatter_masked, only active lanes are checked before the store;
  // the readback's all-lanes check runs between the passes.
  check_indices(idx, table.size(), &active);
  Mask out;
  fused_scatter_gather_eq(out, table, idx, vals, &active, elide);
  if (analyzer_ != nullptr) {
    analyzer_->rec_sge(out.bytes(), table, idx, vals, active.bytes(), sv, elide);
  }
  return out;
}

std::pair<WordVec, WordVec> VectorMachine::partition(std::span<const Word> v,
                                                     const Mask& m) {
  FOLVEC_REQUIRE(v.size() == m.size(), "value/mask lengths must match");
  if (!config_.fuse) {
    WordVec kept = compress(v, m);
    const Mask rejected_mask = mask_not(m);
    WordVec rejected = compress(v, rejected_mask);
    return {std::move(kept), std::move(rejected)};
  }
  const std::size_t nt = m.popcount();
  const OpTimer timer(cost_, OpClass::kVectorPartition, v.size());
  issue(OpClass::kVectorPartition, v.size());
  WordVec kept(nt);
  WordVec rejected(v.size() - nt);
  backend_->partition(v, m, kept, rejected);
  if (analyzer_ != nullptr) analyzer_->rec_partition(kept, rejected, v, m.bytes());
  if (telemetry::MetricsRegistry* r = telemetry::metrics()) {
    r->add("fused.partition", 1);
    r->add("fused.partition.lanes", v.size());
  }
  return {std::move(kept), std::move(rejected)};
}

std::size_t VectorMachine::partition_into(WordVec& kept, WordVec& rejected,
                                          std::span<const Word> v,
                                          const Mask& m) {
  FOLVEC_REQUIRE(v.size() == m.size(), "value/mask lengths must match");
  if (!config_.fuse) {
    const std::size_t nt = compress_into(kept, v, m);
    const Mask rejected_mask = mask_not(m);
    compress_into(rejected, v, rejected_mask);
    return nt;
  }
  const std::size_t nt = m.popcount();
  const OpTimer timer(cost_, OpClass::kVectorPartition, v.size());
  issue(OpClass::kVectorPartition, v.size());
  kept.resize(nt);
  rejected.resize(v.size() - nt);
  backend_->partition(v, m, kept, rejected);
  if (analyzer_ != nullptr) analyzer_->rec_partition(kept, rejected, v, m.bytes());
  if (telemetry::MetricsRegistry* r = telemetry::metrics()) {
    r->add("fused.partition", 1);
    r->add("fused.partition.lanes", v.size());
  }
  return nt;
}

}  // namespace folvec::vm

// Chime-style cost accounting for the simulated vector processor.
//
// The paper's evaluation ran on a Hitachi S-810/20, a register-based
// pipelined vector processor. We do not have that hardware, so every
// algorithm in this repo executes against folvec::vm::VectorMachine, which
// counts the instructions it issues. The counts are converted into cycle
// estimates by a CostParams table with the classic two-parameter pipeline
// model:
//
//     cost(instruction over n elements) = startup + n * per_element
//
// Vector startup (pipeline fill + instruction issue) is what makes short
// vectors slow; per-element throughput is what makes long vectors fast.
// Gather/scatter ("list vector") instructions are given a markedly higher
// per-element cost than linear loads, matching every memory-bank-conflict
// analysis of the S-810 class of machines. Scalar code is modelled with flat
// per-operation costs. The absolute constants are calibrated, not measured
// (see CostParams::s810_like for the rationale); the benchmark harnesses
// compare *shapes* against the paper, never absolute microseconds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace folvec::vm {

/// Instruction classes distinguished by the cost model.
enum class OpClass : std::uint8_t {
  kScalarAlu,             ///< register arithmetic / logic, one datum
  kScalarMem,             ///< scalar load or store
  kScalarBranch,          ///< compare-and-branch step of a scalar loop
  kScalarDiv,             ///< scalar integer divide / modulus (slow!)
  kVectorArith,           ///< elementwise vector arithmetic / logic
  kVectorCompare,         ///< elementwise compare producing a mask
  kVectorDiv,             ///< elementwise divide / modulus (pipelined)
  kVectorMask,            ///< mask-register manipulation
  kVectorLoad,            ///< contiguous vector load
  kVectorStore,           ///< contiguous vector store
  kVectorGather,          ///< indexed load (list-vector load)
  kVectorScatter,         ///< indexed store, ELS semantics (S-3800 VIST)
  kVectorScatterOrdered,  ///< indexed store, order-preserving (VSTX); slower
  kVectorCompress,        ///< pack-under-mask ("A where M")
  kVectorReduce,          ///< reduction (count_true, sum, min, max)
  kVectorScatterGatherEq, ///< fused scatter + readback gather + compare
  kVectorPartition,       ///< fused two-way pack-under-mask (kept/rejected)
  kCount
};

constexpr std::size_t kOpClassCount = static_cast<std::size_t>(OpClass::kCount);

/// Human-readable mnemonic for an op class.
const char* op_class_name(OpClass c);

/// Whether the class models a vector (pipelined) instruction.
constexpr bool is_vector_class(OpClass c) {
  return c >= OpClass::kVectorArith;
}

/// The two-parameter pipeline model, one (startup, per_element) pair per
/// instruction class, plus the machine clock used to convert cycles to time.
struct CostParams {
  std::array<double, kOpClassCount> startup{};
  std::array<double, kOpClassCount> per_element{};
  double clock_hz = 71.0e6;  ///< S-810 cycle time was 14 ns.

  /// Calibrated parameter set used by all reproduction benches.
  static CostParams s810_like();

  /// A hypothetical machine with zero vector startup (ablation: how much of
  /// the paper's load-factor hump is a startup artefact).
  static CostParams zero_startup();

  /// A machine whose gather/scatter runs at linear-load speed (ablation:
  /// list-vector memory cost).
  static CostParams cheap_gather();

  double cost(OpClass c, std::size_t elements) const {
    const auto i = static_cast<std::size_t>(c);
    return startup[i] + per_element[i] * static_cast<double>(elements);
  }
};

/// Raw instruction/element counts per class; cycle conversion is applied on
/// demand so one run can be re-priced under several CostParams.
///
/// Next to the chime model, the accumulator also collects measured *host*
/// wall-clock per class (record_wall, fed by VectorMachine's per-primitive
/// timers). The chime numbers answer "what would the S-810 have done"; the
/// wall numbers answer "what does this backend do on this hardware" — the
/// backend-comparison bench reports both side by side. The chime ledger is
/// always filled; the wall ledger fills only while a metrics registry, span
/// tracer or calibration profiler is installed (every bench main installs
/// one through its EnvSession), since with none installed the machine reads
/// no clock.
class CostAccumulator {
 public:
  void record(OpClass c, std::size_t elements) {
    const auto i = static_cast<std::size_t>(c);
    instructions_[i] += 1;
    elements_[i] += elements;
  }

  /// Adds measured host execution time for one instruction of class `c`.
  void record_wall(OpClass c, double seconds) {
    wall_seconds_[static_cast<std::size_t>(c)] += seconds;
  }

  void reset() {
    instructions_.fill(0);
    elements_.fill(0);
    wall_seconds_.fill(0.0);
  }

  std::uint64_t instructions(OpClass c) const {
    return instructions_[static_cast<std::size_t>(c)];
  }
  std::uint64_t elements(OpClass c) const {
    return elements_[static_cast<std::size_t>(c)];
  }
  std::uint64_t total_instructions() const;
  std::uint64_t total_elements() const;

  /// Measured host seconds spent executing instructions of class `c`.
  double wall_seconds(OpClass c) const {
    return wall_seconds_[static_cast<std::size_t>(c)];
  }
  double total_wall_seconds() const;

  /// Estimated cycles under `p`.
  double cycles(const CostParams& p) const;

  /// Estimated wall time in microseconds under `p`.
  double microseconds(const CostParams& p) const {
    return cycles(p) / p.clock_hz * 1.0e6;
  }

  CostAccumulator& operator+=(const CostAccumulator& other);

  /// Multi-line per-class breakdown for reports.
  std::string breakdown(const CostParams& p) const;

 private:
  std::array<std::uint64_t, kOpClassCount> instructions_{};
  std::array<std::uint64_t, kOpClassCount> elements_{};
  std::array<double, kOpClassCount> wall_seconds_{};
};

/// Cost-ticking helper for scalar baseline code. Wraps a nullable
/// accumulator so the same algorithm can run instrumented (benchmarks) or
/// free (plain library use) without branching at every call site.
class ScalarCost {
 public:
  ScalarCost() = default;
  explicit ScalarCost(CostAccumulator* acc) : acc_(acc) {}

  void alu(std::size_t n = 1) { tick(OpClass::kScalarAlu, n); }
  void mem(std::size_t n = 1) { tick(OpClass::kScalarMem, n); }
  void branch(std::size_t n = 1) { tick(OpClass::kScalarBranch, n); }
  void div(std::size_t n = 1) { tick(OpClass::kScalarDiv, n); }

 private:
  void tick(OpClass c, std::size_t n) {
    if (acc_ != nullptr) acc_->record(c, n);
  }
  CostAccumulator* acc_ = nullptr;
};

}  // namespace folvec::vm

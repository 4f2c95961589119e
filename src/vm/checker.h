// ScatterCheck: a lane-level hazard auditor for VectorMachine.
//
// The paper's entire correctness argument rests on two contracts: the ELS
// condition (a contested scatter address holds exactly one of the written
// values) and the discipline that algorithms only issue duplicate-address
// scatters inside FOL-sanctioned rounds. Nothing in the machine enforces
// either — a broken substrate or an undisciplined algorithm silently
// mis-decomposes. ScatterCheck is the race detector for this world: with
// MachineConfig::audit set (or FOLVEC_AUDIT=1 in the environment), every
// gather / scatter / masked store is instrumented with per-lane checks and
// violations surface as structured Hazards (see hazard.h) at the offending
// instruction.
//
// The rules:
//
//   * Out-of-bounds lanes and operand length mismatches are recorded with
//     the exact offending lanes, then rethrown as the PreconditionError the
//     un-audited machine would raise (so audit mode never changes the
//     exception type of a hard precondition).
//   * A scatter that writes two *different* values to one address is a
//     hazard (kUnsanctionedDuplicate) unless (a) it is order-preserving
//     (scatter_ordered defines the survivor), or (b) it executes inside a
//     ConflictWindow covering the table — the FOL label rounds' sanction.
//     Equal-value collisions are benign (e.g. a wavefront writing d+1 to a
//     shared neighbour cell).
//   * Inside a window, a gather readback is checked against the per-address
//     candidate set of the latest writing instruction: if memory holds a
//     value *no colliding lane wrote*, the substrate broke the ELS condition
//     and the auditor reports exactly which lanes were amalgamated
//     (kElsViolation) — rather than FOL merely observing an empty
//     parallel-processable set.
//   * A label-round window (WindowKind::kLabelRound) marks every written
//     address as clobbered-by-labels when it closes; gathering such an
//     address outside any window is a use-after-round hazard
//     (kClobberedWorkRead) until the address is overwritten or the work
//     array is retired (VectorMachine::retire_work).
//   * FOL* asks the checker to verify each emitted multi-tuple set is
//     cross-lane conflict-free (audit_tuple_set → kTupleConflict), and both
//     FOL variants validate Decompositions with satisfies_all_theorems,
//     reporting kTheoremViolation through the checker.
//
// Audit-class hazards throw AuditError when MachineConfig::audit_throw is
// set (the default); with audit_throw=false they only accumulate in
// VectorMachine::hazards(), which tests inspect directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/interval_set.h"
#include "vm/hazard.h"
#include "vm/machine.h"

namespace folvec::vm {

/// What the writes inside a ConflictWindow mean for later reads.
enum class WindowKind : std::uint8_t {
  /// Written values are transient lane labels (FOL rounds): when the window
  /// closes, every written address is marked clobbered until overwritten or
  /// retired.
  kLabelRound,
  /// Written values are real data racing for a slot (multiple hashing's
  /// overwrite-and-check): addresses stay readable after the window.
  kDataRace,
};

class ScatterChecker {
 public:
  explicit ScatterChecker(bool throw_on_hazard)
      : throw_(throw_on_hazard) {}

  bool throws() const { return throw_; }
  const HazardReport& report() const { return report_; }
  void clear() { report_.clear(); }

  // ---- window stack (use the ConflictWindow RAII wrapper) -----------------

  void push_window(std::span<const Word> table, WindowKind kind,
                   const char* label);
  void pop_window();

  // ---- instruction hooks (called by VectorMachine) ------------------------

  /// Before a gather / gather_masked. Checks lengths and bounds (recording
  /// then throwing PreconditionError), then ELS readback consistency inside
  /// a window and clobbered-work reads outside.
  void on_gather(std::span<const Word> table, std::span<const Word> idx,
                 const Mask* mask);

  /// Before a scatter / scatter_masked / scatter_ordered. Checks lengths and
  /// bounds, then the duplicate-address sanction rules, and records the
  /// per-address candidate values for later readback checks.
  void on_scatter(std::span<const Word> table, std::span<const Word> idx,
                  std::span<const Word> vals, const Mask* mask, bool ordered);

  /// Instead of on_scatter when the analyzer proved the op safe and the
  /// machine elided the per-lane audit pass. `lo`/`hi` bound (inclusively)
  /// the addresses the scatter may have written; `exact` means it provably
  /// overwrote *every* address in [lo, hi]. Keeps the candidate-set and
  /// clobber state consistent without enumerating lanes: stale per-address
  /// candidate sets in the range are dropped (the elided write replaced
  /// them), exact coverage clears clobber marks, and exact label-round
  /// writes are re-booked as a clobbered range when the window closes.
  void on_scatter_elided(std::span<const Word> table, Word lo, Word hi,
                         bool exact);

  /// Before a scalar_store: a deterministic single-address write (FOL*'s
  /// scalar rescue). Replaces the address's candidate set inside a window.
  void on_scalar_store(std::span<const Word> table, std::size_t pos,
                       Word value);

  /// After any contiguous/strided overwrite (store, fill, store_strided):
  /// overwritten addresses are fresh data again.
  void on_overwrite(const Word* base, std::size_t n, std::size_t stride = 1);

  /// Before a contiguous load: clobbered-work check for the whole range.
  void on_contiguous_read(std::span<const Word> table, std::size_t offset,
                          std::size_t n);

  // ---- FOL-level audits ---------------------------------------------------

  /// Verifies the tuples of one FOL* parallel-processable set are pairwise
  /// address-disjoint across all index vectors (kTupleConflict otherwise).
  void audit_tuple_set(std::span<const std::size_t> set,
                       std::span<const WordVec> index_vectors);

  /// Records a kTheoremViolation for a Decomposition that failed
  /// satisfies_all_theorems.
  void audit_theorem_violation(const std::string& where,
                               const std::string& details);

  /// Drops clobber marks covering `region` — the work array is dead.
  void retire_work(std::span<const Word> region);

 private:
  /// Candidate values one instruction wrote to one address. Later writing
  /// instructions replace earlier ones (their survivor is deterministic
  /// relative to the old value); within one ELS scatter, every colliding
  /// lane's value is a legal survivor.
  struct WriteRecord {
    std::uint64_t instr = 0;
    std::vector<std::pair<std::size_t, Word>> writers;  // (lane, value)
  };

  struct Window {
    const Word* begin = nullptr;
    const Word* end = nullptr;
    WindowKind kind = WindowKind::kLabelRound;
    const char* label = "";
    std::unordered_map<const Word*, WriteRecord> writes;
    /// Exact-coverage elided scatter footprints; booked into
    /// clobbered_ranges_ when a label round closes. Trimmed by overwrites,
    /// exactly like `writes`.
    analysis::IntervalSet<Word> elided_ranges;
  };

  /// Innermost window whose span contains the whole table, or nullptr.
  Window* covering_window(std::span<const Word> table);

  void add(Hazard h) { report_.add(std::move(h)); }
  [[noreturn]] void throw_audit(std::size_t first_new) const;

  /// Records a length-mismatch / out-of-bounds hazard and throws the
  /// PreconditionError the un-audited machine would have raised.
  [[noreturn]] void precondition_hazard(Hazard h);

  void check_lengths(OpClass op, std::size_t idx_n, std::size_t vals_n,
                     const Mask* mask);
  void check_bounds(OpClass op, std::span<const Word> idx,
                    std::size_t table_size, const Mask* mask);

  bool throw_ = true;
  HazardReport report_;
  std::vector<Window> windows_;
  std::unordered_set<const Word*> clobbered_;
  /// Interval-granular clobber marks from elided label-round scatters (the
  /// per-address set above tracks fully-audited rounds). Reads consult both.
  analysis::IntervalSet<Word> clobbered_ranges_;
  std::uint64_t instr_seq_ = 0;
};

/// Scoped sanction for duplicate-address scatters: FOL label rounds and
/// racing overwrite-and-check loops open one of these over the table they
/// contend on. No-op when the machine is not auditing.
class ConflictWindow {
 public:
  ConflictWindow(VectorMachine& m, std::span<const Word> table,
                 WindowKind kind, const char* label)
      : checker_(m.audit_enabled() ? m.checker() : nullptr),
        analyzer_(m.analyzer()) {
    if (checker_ != nullptr) checker_->push_window(table, kind, label);
    if (analyzer_ != nullptr) {
      analyzer_->on_window_open(table,
                                kind == WindowKind::kLabelRound
                                    ? analysis::WindowCtx::kLabelRound
                                    : analysis::WindowCtx::kDataRace,
                                label);
    }
  }
  ~ConflictWindow() {
    if (analyzer_ != nullptr) analyzer_->on_window_close();
    if (checker_ != nullptr) checker_->pop_window();
  }

  ConflictWindow(const ConflictWindow&) = delete;
  ConflictWindow& operator=(const ConflictWindow&) = delete;

 private:
  ScatterChecker* checker_;
  analysis::Analyzer* analyzer_;
};

}  // namespace folvec::vm

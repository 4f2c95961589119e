// The online analyzer: abstract interpretation of the live instruction
// stream, op-graph recording, and the audit-elision oracle.
//
// VectorMachine owns one Analyzer when MachineConfig::analysis is set and
// calls exactly three kinds of hooks:
//
//   * rec_*   — after a primitive executed: transfer the operand facts
//               through the matching facts.h function, remember the result
//               facts keyed by the output's storage, and (when graph
//               recording is on) append an OpNode with def/use edges.
//   * classify_* — before a list-vector memory op executes: judge the three
//               hazard classes (verdict.h) from the operand facts plus the
//               window / clobber state. The machine uses the
//               verdicts to elide ScatterCheck work (all-safe ops) or to
//               veto execution (proven out-of-bounds ops in lint dry mode).
//   * on_*    — environment events: ConflictWindow open/close and
//               retire_work. These drive the clobber state machine.
//
// Facts are keyed by storage address (base pointer + length), and each entry
// keeps a copy of the lanes it describes. Every mutation the machine makes
// flows through a hook that invalidates overlapping entries; a mutation the
// HOST makes (rewriting a vector, or reusing a freed vector's storage for a
// new one) is caught by the copy: an entry is trusted only while the queried
// lanes still equal it, so stale facts read as unknown, never as false (see
// "machine-visible dataflow" in docs/analysis.md).
//
// The analyzer depends on no vm/ header (vm links against analysis, not the
// reverse); operands arrive as raw spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/facts.h"
#include "analysis/opgraph.h"
#include "analysis/verdict.h"

namespace folvec::analysis {

/// One reportable finding: a proven hazard (lint errors) with its source
/// location and a human-readable message.
struct Diagnostic {
  HazardClass cls = HazardClass::kBounds;
  Verdict verdict = Verdict::kProvenHazard;
  std::uint32_t node = kNoNode;  ///< graph node id (kNoNode when not recording)
  std::size_t line = 0;          ///< lang source line; 0 = unknown
  std::string message;
};

class Analyzer {
 public:
  struct Options {
    /// Append every op to the OpGraph (lint / tooling). Off by default so
    /// steady-state audit-elision runs hold no growing state.
    bool record_graph = false;
    /// Lint dry mode: the machine skips executing memory ops whose bounds
    /// verdict is kProvenHazard (so analysis can continue past them).
    bool veto = false;
  };

  struct Stats {
    std::uint64_t mem_ops = 0;  ///< classified list-vector ops
    std::uint64_t mem_safe = 0;
    std::uint64_t mem_unknown = 0;
    std::uint64_t mem_hazard = 0;
    std::uint64_t scatter_ops = 0;  ///< scatter-class subset
    std::uint64_t scatter_safe = 0;
    std::uint64_t elided_instructions = 0;
    std::uint64_t elided_lanes = 0;
    std::uint64_t checked_instructions = 0;
    std::uint64_t checked_lanes = 0;
    std::uint64_t vetoed = 0;
    /// Per hazard class, per verdict (indexed by Verdict) over classified ops.
    std::uint64_t class_verdicts[kHazardClassCount][3] = {};
  };

  Analyzer() = default;
  explicit Analyzer(const Options& opts) : opts_(opts) {}

  bool veto() const { return opts_.veto; }
  void set_veto(bool v) { opts_.veto = v; }
  bool recording_graph() const { return opts_.record_graph; }
  void set_record_graph(bool v) { opts_.record_graph = v; }

  /// Source location for subsequent ops (lang interpreter sets this).
  void set_line(std::size_t line) { line_ = line; }
  std::size_t line() const { return line_; }

  const OpGraph& graph() const { return graph_; }
  const Stats& stats() const { return stats_; }
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  /// Measured-range annotation: scans v once (host-side, no machine cost)
  /// and records a tight interval fact for it. FOL drivers call this on
  /// their index vectors so every round's scatter bounds are proven.
  void observe_range(std::span<const Word> v);

  // ---- recording hooks (non-memory primitives) ----------------------------

  void rec_gen(Opcode op, std::span<const Word> out, Word s0, Word s1);
  void rec_unary(Opcode op, std::span<const Word> out, std::span<const Word> in,
                 Word s0 = 0);
  void rec_binary(Opcode op, std::span<const Word> out, std::span<const Word> a,
                  std::span<const Word> b);
  void rec_cmp(Opcode op, std::span<const std::uint8_t> out,
               std::span<const Word> a, std::span<const Word> b, Word s0);
  void rec_mask2(Opcode op, std::span<const std::uint8_t> out,
                 std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> b);
  void rec_reduce(Opcode op, std::span<const Word> in);
  void rec_count_true(std::span<const std::uint8_t> m);
  void rec_compress(std::span<const Word> out, std::span<const Word> in,
                    std::span<const std::uint8_t> m);
  void rec_partition(std::span<const Word> kept, std::span<const Word> rejected,
                     std::span<const Word> in, std::span<const std::uint8_t> m);
  void rec_select(std::span<const Word> out, std::span<const std::uint8_t> m,
                  std::span<const Word> a, std::span<const Word> b);
  void rec_from_mask(std::span<const Word> out,
                     std::span<const std::uint8_t> m);

  // ---- contiguous memory ---------------------------------------------------

  void rec_load(Opcode op, std::span<const Word> out,
                std::span<const Word> table);
  /// store / store_strided / fill: `dst` is the first written address,
  /// `n` the element count, `stride` the element stride (1 for fill/store).
  void rec_store(Opcode op, std::span<const Word> table, const Word* dst,
                 std::size_t n, std::size_t stride);
  void rec_scalar_store(std::span<const Word> table, std::size_t pos);

  // ---- list-vector memory: classify before, record after -------------------

  OpVerdicts classify_gather(std::span<const Word> table,
                             std::span<const Word> idx, bool masked);
  OpVerdicts classify_scatter(std::span<const Word> table,
                              std::span<const Word> idx,
                              std::span<const Word> vals, bool masked,
                              bool ordered);
  /// The fused scatter + readback: scatter judges plus the readback's
  /// all-lanes bounds (its gather checks every lane even under a mask).
  OpVerdicts classify_sge(std::span<const Word> table,
                          std::span<const Word> idx, std::span<const Word> vals,
                          bool masked);

  void rec_gather(std::span<const Word> out, std::span<const Word> table,
                  std::span<const Word> idx, std::span<const std::uint8_t> mask,
                  const OpVerdicts& v, bool elided);
  /// `executed` is false for vetoed ops (recorded in the graph, but the
  /// write never happened so no table effects are applied).
  void rec_scatter(std::span<const Word> table, std::span<const Word> idx,
                   std::span<const Word> vals,
                   std::span<const std::uint8_t> mask, bool ordered,
                   const OpVerdicts& v, bool elided, bool executed = true);
  void rec_sge(std::span<const std::uint8_t> out, std::span<const Word> table,
               std::span<const Word> idx, std::span<const Word> vals,
               std::span<const std::uint8_t> mask, const OpVerdicts& v,
               bool elided, bool executed = true);

  /// The interval the idx facts prove all lanes confined to. True (filling
  /// lo/hi, clamped to the table) only when the range is proven in bounds;
  /// `exact` reports whether the lanes provably cover every address in it.
  bool proven_index_range(std::span<const Word> idx, std::size_t table_size,
                          Word* lo, Word* hi, bool* exact);

  // ---- environment events --------------------------------------------------

  void on_window_open(std::span<const Word> table, WindowCtx kind,
                      const char* label);
  void on_window_close();
  void on_retire_work(std::span<const Word> region);

  // ---- elision accounting (the machine reports its decision) ---------------

  void note_elided(std::size_t lanes) {
    ++stats_.elided_instructions;
    stats_.elided_lanes += lanes;
  }
  void note_checked(std::size_t lanes) {
    ++stats_.checked_instructions;
    stats_.checked_lanes += lanes;
  }
  void note_vetoed() { ++stats_.vetoed; }

 private:
  struct ValueEntry {
    std::size_t len = 0;
    LaneFacts facts;
    std::uint32_t node = kNoNode;
    /// The lanes the facts describe, as remembered. The host may rewrite a
    /// vector, or the allocator may hand a freed one's storage to another,
    /// so an entry is trusted only while the queried lanes still match.
    std::vector<Word> lanes;
  };
  struct MaskEntry {
    std::size_t len = 0;
    std::uint32_t node = kNoNode;
  };
  /// A maybe-stale-labels address span [lo, hi); `exact` means every
  /// address in it was provably written by the clobbering round.
  struct ClobSpan {
    const Word* lo = nullptr;
    const Word* hi = nullptr;
    bool exact = false;
  };
  struct Win {
    const Word* begin = nullptr;
    const Word* end = nullptr;
    WindowCtx kind = WindowCtx::kNone;
    std::vector<ClobSpan> writes;
  };

  // facts bookkeeping
  /// Facts of v; unknown when no entry covers v or the covering entry's
  /// lanes no longer match v (then the entry is dropped).
  LaneFacts lookup(std::span<const Word> v);
  void remember(std::span<const Word> out, const LaneFacts& f,
                std::uint32_t node);
  void invalidate(const Word* begin, const Word* end);
  std::uint32_t value_node(std::span<const Word> v);
  std::uint32_t mask_node(std::span<const std::uint8_t> m);
  void remember_mask(std::span<const std::uint8_t> out, std::uint32_t node);

  // graph bookkeeping
  std::uint32_t record(OpNode n);
  std::uint32_t region_of(std::span<const Word> table);

  // clobber / window state
  const Win* covering_window(std::span<const Word> table) const;
  Win* covering_window(std::span<const Word> table);
  ClobberOverlap clobber_overlap(std::span<const Word> table,
                                 const LaneFacts& idx) const;
  void clear_clobber(const Word* begin, const Word* end, bool full_cover);
  void book_window_write(std::span<const Word> table, const LaneFacts& idx,
                         bool masked);

  void count_mem(const OpVerdicts& v, bool scatter_class);
  void diagnose(HazardClass cls, std::uint32_t node, const std::string& msg);
  void report_hazards(const char* what, const OpVerdicts& v,
                      const LaneFacts& idxf, std::size_t table_size,
                      std::uint32_t node);

  Options opts_;
  std::size_t line_ = 0;
  std::map<const Word*, ValueEntry> values_;
  std::map<const std::uint8_t*, MaskEntry> masks_;
  std::vector<Win> windows_;
  std::vector<ClobSpan> clobbered_;
  std::map<const Word*, std::uint32_t> regions_;
  OpGraph graph_;
  Stats stats_;
  std::vector<Diagnostic> diags_;
};

}  // namespace folvec::analysis

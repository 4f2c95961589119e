// The recorded op-graph IR: an SSA-ish dataflow graph of one machine run.
//
// Every VectorMachine primitive the analyzer observes becomes one OpNode;
// the node's index is its SSA value id (the op IS its result). def/use edges
// are the `inputs` list: each entry names the node that produced an operand
// vector/mask, with kSource nodes materialized lazily for values the
// recorder never saw defined (host-built inputs). Audited tables are not
// SSA values — scatters mutate them in place — so memory ops carry a
// `region` id instead, and window open/close and retire-work events are
// recorded as nodes in program order, which is
// exactly what the offline replay (verifier.h) needs to reconstruct the
// clobber state machine.
//
// The graph is the IR contract for tooling: folvec_lint serializes it with
// to_json() ("folvec-opgraph-v1", schema documented in docs/analysis.md)
// and the static verifier replays either the in-memory or the re-parsed
// form. 64-bit scalar payloads (s0/s1, interval endpoints) are serialized
// as strings — JSON numbers are doubles and must round-trip exactly.
//
// ROADMAP item 5 (operation fusion) consumes this same graph: def/use
// chains of elementwise nodes are precisely the fusible pipelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/facts.h"
#include "analysis/verdict.h"

namespace folvec::analysis {

enum class Opcode : std::uint8_t {
  kSource = 0,    ///< a value first seen as an operand (no recorded producer)
  kObserveRange,  ///< measured min/max annotation (Analyzer::observe_range)
  kIota,
  kSplat,
  kCopy,
  kReverse,
  kAdd,
  kSub,
  kMul,
  kAddScalar,
  kMulScalar,
  kDivScalar,
  kModScalar,
  kAndScalar,
  kOrScalar,
  kShlScalar,
  kShrScalar,
  kNegate,
  kCmpEq,
  kCmpNe,
  kCmpLe,
  kCmpLt,
  kCmpEqScalar,
  kCmpNeScalar,
  kCmpLeScalar,
  kCmpLtScalar,
  kCmpGeScalar,
  kMaskAnd,
  kMaskOr,
  kMaskNot,
  kCountTrue,
  kReduceSum,
  kReduceMin,
  kReduceMax,
  kCompress,
  kPartitionKept,
  kPartitionRejected,
  kSelect,
  kFromMask,
  kLoad,
  kLoadStrided,
  kStore,
  kStoreStrided,
  kFill,
  kScalarStore,
  kGather,
  kScatter,
  kScatterOrdered,
  kScatterGatherEq,
  kWindowOpen,
  kWindowClose,
  kRetireWork,
};
inline constexpr std::size_t kOpcodeCount =
    static_cast<std::size_t>(Opcode::kRetireWork) + 1;

const char* opcode_name(Opcode op);

/// True for the list-vector memory ops the verifier rules on.
inline bool opcode_checkable(Opcode op) {
  return op == Opcode::kGather || op == Opcode::kScatter ||
         op == Opcode::kScatterOrdered || op == Opcode::kScatterGatherEq;
}

/// True for the scatter-class subset (what audit elision targets first).
inline bool opcode_scatter_class(Opcode op) {
  return op == Opcode::kScatter || op == Opcode::kScatterOrdered ||
         op == Opcode::kScatterGatherEq;
}

inline constexpr std::uint32_t kNoNode = ~std::uint32_t{0};
inline constexpr std::uint32_t kNoRegion = ~std::uint32_t{0};

struct OpNode {
  Opcode op = Opcode::kSource;
  /// def/use edges: producer node ids of the operand values, in operand
  /// order (memory ops: idx, then vals, then mask).
  std::vector<std::uint32_t> inputs;
  /// Op-specific extra refs: kObserveRange names the annotated value.
  std::vector<std::uint32_t> aux;
  std::size_t lanes = 0;
  /// Scalar payloads: the scalar operand of *_scalar ops; iota's
  /// (start, step); kObserveRange's measured (min, max).
  Word s0 = 0;
  Word s1 = 0;
  /// Memory ops: the audited table's region and element count.
  std::uint32_t region = kNoRegion;
  std::size_t table_size = 0;
  bool masked = false;
  bool ordered = false;
  bool elided = false;  ///< this op's ScatterCheck work was elided
  /// Window context at issue (kWindowOpen nodes: the opened kind).
  WindowCtx window = WindowCtx::kNone;
  /// lang/ source line (Expr::line) active at issue; 0 = unknown.
  std::size_t line = 0;
  /// Facts of the op's vector output (meaningless for pure effects).
  LaneFacts facts;
  /// Verdicts (checkable memory ops only; vacuously safe otherwise).
  OpVerdicts verdicts;
};

struct OpGraph {
  std::vector<OpNode> nodes;
  /// Element count per table region (grows if a region is later seen
  /// larger; regions are identified by table base address at record time).
  std::vector<std::size_t> region_sizes;

  std::uint32_t add(OpNode n) {
    nodes.push_back(std::move(n));
    return static_cast<std::uint32_t>(nodes.size() - 1);
  }

  /// Serializes as "folvec-opgraph-v1" (see docs/analysis.md).
  std::string to_json(int indent = -1) const;

  /// Parses a to_json() document; throws PreconditionError on malformed or
  /// wrong-schema input.
  static OpGraph from_json(const std::string& text);
};

}  // namespace folvec::analysis

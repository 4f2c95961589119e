// The offline static verifier: replays a recorded op graph.
//
// verify() walks an OpGraph in program order, recomputes every node's
// LaneFacts through the same facts.h transfer functions the online analyzer
// used, reconstructs the window / clobber state machine from the recorded
// environment nodes (window open/close, stores, retire-work), and re-judges
// every checkable memory op with the shared judge functions from verdict.h.
//
// Because judges and transfer functions are shared, the replayed verdicts
// must MATCH the verdicts recorded in the graph — any divergence is reported
// as a mismatch and means either a corrupted graph or an analyzer bug (the
// analysis tests assert zero mismatches on round-tripped graphs). Every
// hazard class is replayed; none is trusted from the recording.
//
// This is what folvec_lint runs after a dry execution, and what downstream
// tooling can run on a "folvec-opgraph-v1" JSON document without any
// machine at all.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/opgraph.h"

namespace folvec::analysis {

struct ReplayResult {
  /// Proven hazards found by the replay (one per hazardous class per op).
  std::vector<Diagnostic> diagnostics;
  /// Replayed-vs-recorded verdict divergences (empty on a healthy graph).
  std::vector<std::string> mismatches;
  std::size_t checked_ops = 0;  ///< checkable memory ops replayed
  std::size_t safe_ops = 0;     ///< overall() == kProvenSafe
  std::size_t unknown_ops = 0;
  std::size_t hazard_ops = 0;

  bool clean() const { return diagnostics.empty() && mismatches.empty(); }
};

ReplayResult verify(const OpGraph& graph);

}  // namespace folvec::analysis

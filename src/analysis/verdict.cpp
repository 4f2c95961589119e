#include "analysis/verdict.h"

namespace folvec::analysis {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kUnknown:
      return "unknown";
    case Verdict::kProvenSafe:
      return "safe";
    case Verdict::kProvenHazard:
      return "hazard";
  }
  return "?";
}

const char* hazard_class_name(HazardClass c) {
  switch (c) {
    case HazardClass::kBounds:
      return "bounds";
    case HazardClass::kOverlap:
      return "overlap";
    case HazardClass::kClobber:
      return "clobber";
  }
  return "?";
}

Verdict judge_bounds(const LaneFacts& idx, std::size_t table_size,
                     bool masked) {
  if (idx.lanes == 0) return Verdict::kProvenSafe;
  if (idx.has_range && idx.lo >= 0 &&
      static_cast<std::uint64_t>(idx.hi) < table_size) {
    return Verdict::kProvenSafe;
  }
  if (!masked && idx.has_range && idx.tight &&
      (idx.lo < 0 || static_cast<std::uint64_t>(idx.hi) >= table_size)) {
    // A tight endpoint outside the table is an actual offending lane.
    return Verdict::kProvenHazard;
  }
  return Verdict::kUnknown;
}

Verdict judge_scatter_overlap(const LaneFacts& idx, const LaneFacts& vals,
                              WindowCtx window, bool masked, bool ordered) {
  if (ordered) return Verdict::kProvenSafe;  // VSTX defines the survivor
  if (window == WindowCtx::kLabelRound) {
    // The FOL sanction: colliding labels are the algorithm, and the round's
    // readback (scatter_gather_eq) audits the survivor.
    return Verdict::kProvenSafe;
  }
  if (idx.distinct) return Verdict::kProvenSafe;  // no collisions at all
  if (vals.constant()) return Verdict::kProvenSafe;  // collisions benign
  if (!masked && idx.proven_duplicates() && vals.distinct) {
    // Some two lanes share an address (pigeonhole), and every lane pair
    // carries differing values: a collision with a machine-dependent
    // survivor losing real data. Proven even inside a data-race window —
    // the runtime sanction silences the auditor, not the loss.
    return Verdict::kProvenHazard;
  }
  return Verdict::kUnknown;
}

Verdict judge_read_clobber(const LaneFacts& idx, bool in_window,
                           const ClobberOverlap& overlap) {
  if (in_window) return Verdict::kProvenSafe;
  if (!overlap.any) return Verdict::kProvenSafe;
  if (idx.has_range && idx.tight && (overlap.lo_hit || overlap.hi_hit)) {
    return Verdict::kProvenHazard;
  }
  return Verdict::kUnknown;
}

}  // namespace folvec::analysis

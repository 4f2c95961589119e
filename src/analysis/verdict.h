// Per-op hazard verdicts and the judge functions that produce them.
//
// For every list-vector memory op (gather / scatter / scatter_ordered /
// scatter_gather_eq) the verifier rules on three hazard classes, mirroring
// the runtime ScatterCheck taxonomy (vm/hazard.h):
//
//   kBounds   — an index lane outside [0, table_size)     (kOutOfBounds)
//   kOverlap  — colliding scatter lanes with differing values and no
//               sanction or defined survivor              (kUnsanctionedDuplicate,
//                                                          and the ELS self-overlap
//                                                          that kElsViolation audits)
//   kClobber  — reading an address still holding stale labels from a closed
//               label round                               (kClobberedWorkRead)
//
// Verdict semantics (the soundness contract, see docs/analysis.md):
//
//   kProvenSafe   — on a substrate honouring the ELS condition, the runtime
//                   check for this class can never fire. This is the license
//                   for audit elision.
//   kProvenHazard — the facts EXHIBIT a violating lane (tight endpoints,
//                   pigeonhole duplicates). Static analysis may prove
//                   hazards the runtime auditor never fires on (e.g. a
//                   provably lossy scatter inside a sanctioning data-race
//                   window); the reverse — a ProvenSafe op tripping a
//                   runtime check — is a verifier bug, enforced by the
//                   differential fuzz in tests/analysis_test.cpp.
//   kUnknown      — neither proof exists; runtime checks run in full.
//
// The judges are pure functions of LaneFacts plus the window/clobber context
// so the online analyzer and the offline graph replay (verifier.cpp) cannot
// drift apart.
#pragma once

#include <cstddef>
#include <cstdint>

#include "analysis/facts.h"

namespace folvec::analysis {

enum class Verdict : std::uint8_t { kUnknown = 0, kProvenSafe, kProvenHazard };

enum class HazardClass : std::uint8_t {
  kBounds = 0,
  kOverlap,
  kClobber,
};
inline constexpr std::size_t kHazardClassCount = 3;

const char* verdict_name(Verdict v);
const char* hazard_class_name(HazardClass c);

/// One verdict per hazard class. Classes that cannot apply to an op (e.g.
/// kClobber for a pure scatter) stay vacuously kProvenSafe.
struct OpVerdicts {
  Verdict v[kHazardClassCount] = {Verdict::kProvenSafe, Verdict::kProvenSafe,
                                  Verdict::kProvenSafe};

  Verdict& operator[](HazardClass c) { return v[static_cast<std::size_t>(c)]; }
  Verdict operator[](HazardClass c) const {
    return v[static_cast<std::size_t>(c)];
  }

  bool all_safe() const {
    for (const Verdict x : v) {
      if (x != Verdict::kProvenSafe) return false;
    }
    return true;
  }

  bool any_hazard() const {
    for (const Verdict x : v) {
      if (x == Verdict::kProvenHazard) return true;
    }
    return false;
  }

  /// hazard if any class is a proven hazard, safe if all are proven safe,
  /// unknown otherwise.
  Verdict overall() const {
    if (any_hazard()) return Verdict::kProvenHazard;
    return all_safe() ? Verdict::kProvenSafe : Verdict::kUnknown;
  }

  friend bool operator==(const OpVerdicts& a, const OpVerdicts& b) {
    for (std::size_t i = 0; i < kHazardClassCount; ++i) {
      if (a.v[i] != b.v[i]) return false;
    }
    return true;
  }
};

/// The ConflictWindow context a memory op executes under (innermost window
/// covering the table, if any) — mirrors vm::WindowKind.
enum class WindowCtx : std::uint8_t { kNone = 0, kLabelRound, kDataRace };

/// Bounds class. `masked` ops can never be ProvenHazard (the offending
/// endpoint lane may be inactive, and inactive lanes do not access memory);
/// a proven in-bounds interval is safe for any mask.
Verdict judge_bounds(const LaneFacts& idx, std::size_t table_size, bool masked);

/// Overlap class for one scatter-class op. Mirrors ScatterCheck's sanction
/// rules: ordered scatters define their survivor; label-round windows
/// sanction colliding labels (the readback audits survivorship); proven
/// distinct indices or provably-equal values make collisions benign. A
/// pigeonhole-proven duplicate pair with pairwise-distinct values is a
/// proven lossy scatter — flagged even inside a data-race window, where the
/// runtime auditor stays silent by design (static-stronger).
Verdict judge_scatter_overlap(const LaneFacts& idx, const LaneFacts& vals,
                              WindowCtx window, bool masked, bool ordered);

/// What the clobber tracker knows about one read's footprint vs. the
/// stale-label spans left by closed (possibly elided) label rounds.
struct ClobberOverlap {
  bool any = false;     ///< the footprint intersects some clobbered span
  bool lo_hit = false;  ///< idx.lo falls inside an exactly-covered span
  bool hi_hit = false;  ///< idx.hi falls inside an exactly-covered span
};

/// Clobbered-work-read class for one gather / readback. Reads inside any
/// window are exempt (mirroring the runtime checker); a tight endpoint
/// landing in an exactly-covered clobber span exhibits the hazard.
Verdict judge_read_clobber(const LaneFacts& idx, bool in_window,
                           const ClobberOverlap& overlap);

}  // namespace folvec::analysis

// FOL1: the filtering-overwritten-label method for a single rewritten datum
// per unit process (paper Section 3.2).
//
// Given an index vector V whose elements address storage areas (several
// elements may address the *same* area), FOL1 splits the element positions
// into the minimum number of "parallel-processable" sets S1..SM: within a
// set, all addressed areas are distinct, so the unit processes of that set
// can run under a single vector instruction stream; distinct sets must run
// one after another. The split itself uses only data-parallel primitives:
//
//   1. scatter each element's unique label through V into a work word
//      attached to the addressed area;
//   2. gather the labels back through the same V and compare with the
//      originals — a mismatch means someone else overwrote the area's label,
//      i.e. the area is contested this round;
//   3. the lanes whose label survived form the next set; the rest loop.
//
// The only hardware requirement is the ELS condition: a contested work word
// holds exactly one of the written labels (any one), never a mixture.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fol/flat_sets.h"
#include "vm/machine.h"

namespace folvec::fol {

/// Result of a FOL decomposition: `sets[j]` holds the lane positions
/// (0-based indices into the original index vector) of parallel-processable
/// set S_{j+1}; all sets share one flat lane array. Theorems 1-5 of the
/// paper guarantee the sets are disjoint, cover every lane, are minimal in
/// number, and have non-increasing sizes (the latter for FOL1 only).
struct Decomposition {
  FlatSets sets;

  /// Lanes assigned by the adaptive scalar drain rather than by vector
  /// rounds (MachineConfig::adaptive; the trigger's thresholds are the
  /// constants of fol/rounds.h). 0 when the decomposition ran entirely on
  /// the vector unit. The drained assignment satisfies exactly
  /// the same theorems; this field only reports how it was computed.
  std::size_t drained_lanes = 0;

  /// How the drained sets chain together, for consumers that process them
  /// in one pass instead of one set at a time. All three stay empty (0) when
  /// nothing drained. The drained sets are sets[drained_from..]; number
  /// their lanes 0..drained_lanes-1 flat, in set order (the tail of
  /// sets.lanes()).
  std::size_t drained_from = 0;
  /// Per flat drained lane: the flat index of the lane in the previous set
  /// that addresses the same area, or -1 in the first drained set.
  std::vector<vm::Word> drained_pred;
  /// One flat index per distinct drained address: that address's lane in
  /// the last set it occurs in (ordered as the first drained set).
  std::vector<vm::Word> drained_last;

  std::size_t rounds() const { return sets.size(); }

  /// Total lanes across all sets.
  std::size_t total_lanes() const { return sets.lanes().size(); }
};

/// Decomposes `index_vector` (elements are indices into `work`, one work
/// Word per addressable storage area) into parallel-processable sets.
///
/// `work` contents are clobbered: FOL1 deliberately shares the work area
/// with the main processing's target storage (paper, Section 3.2), because
/// the main processing overwrites it afterwards anyway.
///
/// Throws folvec::InternalError if the machine's scatter violates the ELS
/// condition (no lane's label survives a round — impossible on conforming
/// hardware by Theorem 1).
Decomposition fol1_decompose(vm::VectorMachine& m,
                             std::span<const vm::Word> index_vector,
                             std::span<vm::Word> work);

/// Convenience wrapper: decomposes a plain index vector with no caller-
/// provided machine or work area. Allocates a work array of max(index)+1
/// words and runs on a default (forward-order) machine.
Decomposition fol1_decompose_plain(std::span<const vm::Word> index_vector);

/// Applies FOL1 and returns, for every lane, the round (0-based set number)
/// it was assigned to. Handy for callers that iterate sets themselves.
std::vector<std::size_t> fol1_round_of_lane(
    vm::VectorMachine& m, std::span<const vm::Word> index_vector,
    std::span<vm::Word> work);

}  // namespace folvec::fol

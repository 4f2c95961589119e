// FOL*: the filtering-overwritten-label method for unit processes that
// rewrite L data items at once (paper Section 3.3).
//
// Tuple i consists of the i-th elements of L index vectors V1..VL. A set of
// tuples is parallel-processable only if *no* storage area is addressed
// twice across all lanes of all tuples in the set. The decomposition writes
// globally-unique labels through every lane of every vector, reads them
// back, and keeps the tuples for which every lane's label survived.
//
// Deadlock (paper, Section 3.3): unlike FOL1, a round can yield an empty
// set — e.g. tuples <a,b> and <b,a> knock out each other's labels no matter
// which write wins. The paper's remedy is adopted: the *last* remaining
// tuple's labels are re-written by scalar stores after the vector scatter,
// so that tuple survives unless it conflicts with itself. If even that fails
// (the tuple addresses one area through two of its own lanes), the tuple is
// forced out as a singleton set, which is always safe: a singleton set's
// unit process executes alone, its lanes ordered by the instruction
// sequence of the main processing.
#pragma once

#include <cstddef>
#include <span>

#include "fol/fol1.h"
#include "vm/machine.h"

namespace folvec::fol {

struct StarDecomposition {
  /// sets[j] holds tuple positions (0-based) of parallel-processable set j.
  FlatSets sets;
  /// Rounds where the scalar last-tuple rewrite decided a contested address
  /// in the last tuple's favour (deadlock prevention) — counted whether or
  /// not other tuples survived the same round.
  std::size_t scalar_rescues = 0;
  /// Tuples forced out as singletons because they self-conflict.
  std::size_t forced_singletons = 0;
  /// Tuples left unassigned because `max_rounds` cut the decomposition off.
  std::size_t unassigned = 0;
  /// Tuples assigned by the adaptive scalar drain (MachineConfig::adaptive;
  /// thresholds in fol/rounds.h) instead of by vector rounds. Only full
  /// decompositions (max_rounds == 0) drain; bounded ones keep their
  /// round/unassigned semantics.
  std::size_t drained_tuples = 0;

  std::size_t rounds() const { return sets.size(); }
};

/// Decomposes tuples formed by `index_vectors` (all the same length; every
/// element indexes into `work`) into parallel-processable sets of tuples.
///
/// `max_rounds` bounds the number of sets produced; 0 means decompose until
/// every tuple is assigned. Iterative algorithms (tree rewriting, garbage
/// collection, maze routing — see the paper's Related Works) typically want
/// max_rounds = 1: they apply the first parallel-processable set and
/// re-derive the work list, because applying one set can invalidate the
/// remaining tuples anyway. This also sidesteps FOL*'s worst case, where a
/// chain of pairwise-conflicting tuples costs O(N) rounds to decompose
/// fully.
///
/// Practical guidance from the paper: the per-round cost grows linearly in
/// L = index_vectors.size(), so FOL* pays off for L up to about five; the
/// tree-rewriting application uses L = 2.
StarDecomposition fol_star_decompose(
    vm::VectorMachine& m, std::span<const vm::WordVec> index_vectors,
    std::span<vm::Word> work, std::size_t max_rounds = 0);

}  // namespace folvec::fol

// Order-preserving FOL1 (paper, footnote 7).
//
// Plain FOL1 may assign the occurrences of one storage area to sets in any
// order — fine for hashing (the chain order does not matter), wrong for
// journal replay, reduction-by-key with non-commutative operators, or any
// processing where the *sequential* order of updates to one item must be
// preserved. The footnote's remedy: replace the ELS scatter with the
// order-guaranteeing VSTX store and strengthen the label pass so that the
// k-th occurrence (in lane order) of every area lands in the k-th set.
//
// Implementation: per round, the remaining lanes' labels are written in
// *reverse* lane order through the ordered scatter (a negative-stride
// operand feeding VSTX), so the surviving label of every contested area is
// its EARLIEST remaining occurrence. Processing the sets S1, S2, ... in
// order then replays each area's updates exactly in original lane order.
#pragma once

#include <span>

#include "fol/fol1.h"
#include "vm/machine.h"

namespace folvec::fol {

/// Like fol1_decompose, but guarantees: for every storage area, its
/// occurrences are assigned to sets in increasing lane order (the j-th
/// remaining occurrence joins set S_j). Works on any machine config —
/// correctness does not depend on the ELS survivor choice because only the
/// ordered scatter is used for labels. The adaptive drain (thresholds in
/// fol/rounds.h) returns the bit-identical decomposition.
Decomposition fol1_decompose_ordered(vm::VectorMachine& m,
                                     std::span<const vm::Word> index_vector,
                                     std::span<vm::Word> work);

/// Convenience: replays a write journal (targets[i] = values[i], applied in
/// lane order) onto `table` using the ordered decomposition — each set is
/// one conflict-free vector scatter, and the final table state matches the
/// sequential replay bit for bit. Returns the number of sets used.
std::size_t replay_journal(vm::VectorMachine& m,
                           std::span<const vm::Word> targets,
                           std::span<const vm::Word> values,
                           std::span<vm::Word> work, std::span<vm::Word> table);

}  // namespace folvec::fol

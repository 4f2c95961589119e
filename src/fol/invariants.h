// Checkable statements of the paper's Theorems 1-6 and Lemmas 1-3.
//
// These helpers let tests and debug builds verify, for any concrete run,
// exactly the properties the paper proves: disjoint decomposition (Lemma 1),
// conflict-freedom within each set (Lemma 2 / Theorem 2), non-increasing set
// sizes (Theorem 3), and minimality — the number of sets equals the maximum
// address multiplicity (Lemma 3 / Theorem 5).
#pragma once

#include <cstddef>
#include <span>

#include "fol/fol1.h"
#include "vm/machine.h"

namespace folvec::fol {

/// Lemma 1: sets partition {0..n-1} — every lane exactly once.
bool is_disjoint_cover(const Decomposition& d, std::size_t n);

/// Lemma 2: within each set, all addressed storage areas are distinct.
bool sets_are_conflict_free(const Decomposition& d,
                            std::span<const vm::Word> index_vector);

/// Theorem 3: |S1| >= |S2| >= ... >= |SM|.
bool sizes_non_increasing(const Decomposition& d);

/// Maximum multiplicity of any address in the index vector (the paper's M'
/// of Lemma 3). Zero for an empty vector.
std::size_t max_multiplicity(std::span<const vm::Word> index_vector);

/// Theorem 5 / Lemma 3: number of sets equals the maximum multiplicity.
bool is_minimal(const Decomposition& d,
                std::span<const vm::Word> index_vector);

/// All of the above at once; returns false on the first failure.
bool satisfies_all_theorems(const Decomposition& d,
                            std::span<const vm::Word> index_vector);

/// The drained sets' links (Decomposition::drained_pred, drained_last):
/// every drained lane's pred is -1 in the first drained set and otherwise
/// names the lane of the previous set at the same address, and drained_last
/// names every drained address exactly once, at its lane in the last set
/// the address occurs in. All three link fields are empty when nothing
/// drained.
bool drained_tail_consistent(const Decomposition& d,
                             std::span<const vm::Word> index_vector);

}  // namespace folvec::fol

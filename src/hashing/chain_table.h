// Chaining hash tables: the scalar baseline and the FOL1-based multiple
// hash of paper Figure 7 / Section 3.1.
//
// Entered items are chained from the table entries through a node pool laid
// out as structure-of-arrays, so the vectorized path can gather/scatter
// chain heads and node fields with list-vector instructions. Unlike the
// open-addressing variant, chaining accepts duplicate keys (the table is a
// multiset), which is exactly the case where FOL1's label pass is needed:
// two equal keys hash to the same entry and *both* must be pushed onto the
// same chain, one per FOL round.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "vm/cost_model.h"
#include "vm/machine.h"

namespace folvec::hashing {

/// Null link / empty chain head.
inline constexpr vm::Word kNil = -1;

class ChainTable {
 public:
  /// `capacity` bounds the total number of inserted items.
  ChainTable(std::size_t table_size, std::size_t capacity,
             vm::CostAccumulator* cost = nullptr);

  /// Scalar push-front insert (the sequential baseline of Figure 4a).
  void insert_scalar(vm::Word key);

  /// Number of entries equal to `key` (scalar chain walk).
  std::size_t count(vm::Word key) const;

  /// All keys on the chain of table entry `h`, front to back.
  std::vector<vm::Word> chain(std::size_t h) const;

  std::size_t table_size() const { return head_.size(); }
  std::size_t entered() const { return alloc_; }

  // The vectorized inserter needs raw access to the SoA pool.
  std::span<vm::Word> heads() { return head_; }
  std::span<const vm::Word> node_keys() const {
    return {node_key_.data(), alloc_};
  }
  std::span<const vm::Word> node_links() const {
    return {node_next_.data(), alloc_};
  }

  /// Vectorized frequency query: walks all query keys' chains in lockstep
  /// (one gather per chain level) and returns the per-key occurrence
  /// counts. Read-only, so shared chains and duplicate query keys are
  /// harmless.
  vm::WordVec multi_count(vm::VectorMachine& m,
                          std::span<const vm::Word> keys) const;

  friend void multi_hash_chain_insert(vm::VectorMachine& m, ChainTable& t,
                                      std::span<const vm::Word> keys);

 private:
  std::vector<vm::Word> head_;       ///< chain head per table entry (kNil empty)
  std::vector<vm::Word> node_key_;   ///< pool: key of node i
  std::vector<vm::Word> node_next_;  ///< pool: next link of node i (kNil end)
  /// FOL1's label work area, one word per table entry, reused by every
  /// multi_hash_chain_insert call: the label round writes each word it reads
  /// back, and the drain resets each word it uses.
  std::vector<vm::Word> work_;
  std::size_t alloc_ = 0;            ///< pool watermark
  mutable vm::ScalarCost cost_;
};

/// Figure 7: enters `keys` (duplicates allowed) into the chaining table by
/// (1) FOL1-decomposing the hashed-entry index vector into conflict-free
/// sets and (2) pushing each set's nodes in front of their chains with pure
/// vector operations. Set j+1 re-gathers the heads written by set j, so
/// colliding keys stack up on the same chain exactly as sequential inserts
/// would. The sets FOL1's adaptive drain assigned are linked together in one
/// fixed sequence of ten vector instructions, whatever their number:
/// the drain records each lane's same-entry node in the previous set and
/// each entry's node in its last set, which is all that set-by-set linking
/// would compute. Nodes are numbered as set-by-set linking numbers them, so
/// the table is bit-identical either way.
void multi_hash_chain_insert(vm::VectorMachine& m, ChainTable& t,
                             std::span<const vm::Word> keys);

}  // namespace folvec::hashing

// VectorHashMap: an adoptable key-value container over the Figure 8
// machinery — batch upserts, batch lookups, and vectorized growth.
//
// The open-addressing primitives in open_table.h mirror the paper's
// listings exactly (keys only, fixed table, caller-managed storage); this
// facade wraps them into what a downstream user actually wants:
//   * upsert semantics — a batch may mix new and existing keys; existing
//     keys get their value overwritten (within a batch, the LAST lane of a
//     duplicated key wins, matching sequential semantics; this uses the
//     order-guaranteeing VSTX scatter for the value write);
//   * a parallel value array addressed by the key's slot;
//   * automatic rehash at 70% load, itself vectorized: the survivor keys
//     and values are compressed out and re-entered into the bigger table.
//
// The map has no probe loop of its own: inserts run the Figure 8 loop of
// open_table.h with its slot output (each new key's slot, for the value
// write; erased slots are reused), and lookups, erases and upserts find
// slots with the lockstep multi_hash_open_find. The map keeps only its own
// bookkeeping: the live count, tombstones and growth. Duplicate keys need
// no host-side dedup: copies of a new key share the slot the insert gives
// them, and one label round over the touched slots picks one owner lane
// per slot, which counts it once for the live count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hashing/open_table.h"
#include "vm/machine.h"

namespace folvec::hashing {

class VectorHashMap {
 public:
  /// `initial_capacity` is rounded up to a prime > 32 (Figure 8's
  /// requirement for the key-dependent probe step; a prime size keeps every
  /// probe cycle covering the whole table).
  explicit VectorHashMap(std::size_t initial_capacity = 64);

  /// Batch upsert. Keys must be non-negative; duplicates within the batch
  /// resolve to the last lane's value. Grows (rehashes) as needed to keep
  /// the load factor at or below 0.7, and recovers from recoverable
  /// exhaustion (a saturated probe cycle, injected or genuine) by rehashing
  /// to double capacity and retrying — the rehash rolls back on failure and
  /// re-derives partially-inserted keys, so a recovered batch is
  /// indistinguishable from an untroubled one. After a bounded number of
  /// failed recoveries the last folvec::RecoverableError propagates.
  void upsert_batch(vm::VectorMachine& m, std::span<const vm::Word> keys,
                    std::span<const vm::Word> values);

  /// Batch lookup: returns one value lane per query key, `missing` for
  /// absent keys. Read-only; duplicate queries are fine. Like every key
  /// this class takes, query keys must be non-negative: -1 and -2 are the
  /// free-slot and tombstone markers.
  vm::WordVec lookup_batch(vm::VectorMachine& m,
                           std::span<const vm::Word> keys,
                           vm::Word missing) const;

  /// Batch erase: removes the given keys (absent keys are ignored;
  /// duplicates in the batch are fine). Returns the number of keys
  /// actually removed. Erased slots become tombstones: probe chains walk
  /// through them, and fresh inserts reuse them (an inserted key has been
  /// confirmed absent, and no chain has an empty slot before a live key,
  /// so taking the first free-or-tombstone slot keeps every key findable).
  /// A key erased and re-upserted over and over therefore keeps its chain
  /// length. The table rehashes itself once tombstones pass a quarter of
  /// the capacity.
  std::size_t erase_batch(vm::VectorMachine& m,
                          std::span<const vm::Word> keys);

  bool contains(vm::VectorMachine& m, vm::Word key) const;

  /// Every live key, compressed out of the slot array with vector ops
  /// (slot order, not insertion order). The serving layer rebuilds its
  /// per-shard Bloom filters from this when they fill up.
  vm::WordVec live_keys(vm::VectorMachine& m) const;

  std::size_t size() const { return entered_; }
  /// Erased slots not yet reused or dropped by a rehash.
  std::size_t tombstones() const { return tombstones_; }
  std::size_t capacity() const { return slots_.size(); }
  /// The slot array: keys, kUnentered and kTombstone markers.
  std::span<const vm::Word> slots() const { return slots_; }
  double load_factor() const {
    return static_cast<double>(entered_) / static_cast<double>(slots_.size());
  }
  std::size_t rehash_count() const { return rehashes_; }

 private:
  /// One upsert attempt; throws folvec::RecoverableError on recoverable
  /// exhaustion (upsert_batch's retry loop rehashes and re-runs it).
  void upsert_batch_once(vm::VectorMachine& m, std::span<const vm::Word> keys,
                         std::span<const vm::Word> values);

  /// Enters keys (none present; duplicates share a slot) through
  /// try_multi_hash_open_insert, reusing tombstones, and returns their
  /// slots. On success it updates only tombstones_: the caller adds the
  /// distinct count to entered_ (slot_owners, or keys.size() when known
  /// distinct). Throws folvec::RecoverableError(kProbeCycleSaturated) when
  /// the probe loop sweeps the table without converging or fault injection
  /// forces the condition; the table may then hold a partial subset of
  /// `keys`, and entered_ and tombstones_ are both recounted from the table
  /// before the throw so size() stays truthful even when every later
  /// recovery attempt fails too (the retry path treats the landed strays as
  /// existing keys).
  vm::WordVec insert_tracking_slots(vm::VectorMachine& m,
                                    std::span<const vm::Word> keys);

  /// One owner lane per distinct slot in `slots` (nonempty): the mask's
  /// true count is the number of distinct slots. Found by one label round
  /// (ordered scatter of lane labels into those slots' value words, gather,
  /// compare). The caller must be about to overwrite or erase those values:
  /// the labels clobber them.
  vm::Mask slot_owners(vm::VectorMachine& m, std::span<const vm::Word> slots);

  void grow(vm::VectorMachine& m, std::size_t need);

  /// Rebuilds into a fresh table of at least `min_capacity`, dropping
  /// tombstones (vectorized compress + re-insert).
  void rehash(vm::VectorMachine& m, std::size_t min_capacity);

  std::vector<vm::Word> slots_;   ///< keys, kUnentered / kTombstone when free
  std::vector<vm::Word> values_;  ///< value of the key in the same slot
  std::size_t entered_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t rehashes_ = 0;
};

}  // namespace folvec::hashing

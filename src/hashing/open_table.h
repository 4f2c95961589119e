// Open-addressing hash tables: the scalar baseline and the vectorized
// multiple-hash of paper Figure 8.
//
// Only keys are stored (as in the paper); an unused slot holds kUnentered.
// Two probe-sequence variants are provided:
//   * kLinear       — advance by +1 on collision; this is the original
//                     "overwrite-and-check" probing of Kanada's PARBASE-90
//                     paper, kept for the ablation bench;
//   * kKeyDependent — advance by (key & 31) + 1; the optimization this
//                     paper introduces so that colliding keys separate
//                     instead of re-colliding forever.
// The paper asserts size(table) > 32 for the key-dependent variant; the
// reproduction uses the paper's prime sizes 521 and 4099.
//
// Probe-cycle hazard (why the paper's sizes are prime): the key-dependent
// sequence advances by a constant per-key step s = (key & 31) + 1 modulo the
// table size. When gcd(s, size) = g > 1 the sequence visits only the
// size/g slots congruent to hash(key) mod g — a key can exhaust its probe
// CYCLE while plenty of free slots sit outside it. That condition is
// data-dependent, not a bug: it is reported as StatusCode::
// kProbeCycleSaturated (distinct from kTableFull, where every slot really
// is occupied), and insert_or_grow() recovers by growing to a prime size,
// which forces g = 1 for every step in [1, 32] so each probe cycle covers
// the whole table. VectorHashMap sizes its tables prime from the start.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/status.h"
#include "vm/cost_model.h"
#include "vm/machine.h"

namespace folvec::hashing {

enum class ProbeVariant : std::uint8_t {
  kLinear,        ///< +1 (original PARBASE-90 probing)
  kKeyDependent,  ///< +(key & 31) + 1 (this paper's optimization)
};

/// Sentinel marking an unused slot. Keys must be non-negative.
inline constexpr vm::Word kUnentered = -1;

/// Slot marker for erased entries (VectorHashMap): distinct from
/// kUnentered, because probe chains must keep walking through it.
inline constexpr vm::Word kTombstone = -2;

/// The smallest prime >= n. Prime table sizes make gcd(step, size) = 1 for
/// every key-dependent step in [1, 32], so every probe cycle covers the
/// whole table.
std::size_t next_prime(std::size_t n);

/// Scalar open-addressing table, the sequential baseline of Figures 9/10.
class ScalarOpenTable {
 public:
  /// `cost`, when non-null, receives scalar-unit cost ticks so the chime
  /// model can price the baseline.
  ScalarOpenTable(std::size_t table_size, ProbeVariant variant,
                  vm::CostAccumulator* cost = nullptr);

  /// Inserts a key (non-negative, not already present — the Figure 8
  /// algorithm requires distinct keys). Returns the probe count used.
  /// Throws folvec::RecoverableError on kTableFull (every slot occupied) or
  /// kProbeCycleSaturated (the key's probe cycle is full while free slots
  /// remain outside it — see the gcd note above); PreconditionError still
  /// means caller misuse (negative or duplicate key).
  std::size_t insert(vm::Word key);

  /// Status-returning form of insert(): recoverable exhaustion comes back
  /// as kTableFull / kProbeCycleSaturated with the table unchanged, and
  /// `probes_out` (when non-null) receives the probe count on success.
  Status try_insert(vm::Word key, std::size_t* probes_out = nullptr);

  /// insert() with graceful degradation: on recoverable exhaustion the
  /// table grows to the next prime above twice its size (eliminating every
  /// probe-cycle hazard — gcd(step, prime) = 1 for steps in [1, 32]),
  /// re-enters the existing keys, and retries. Returns the probe count of
  /// the final, successful insert.
  std::size_t insert_or_grow(vm::Word key);

  /// Times insert_or_grow() had to grow the table.
  std::size_t grow_count() const { return grows_; }

  /// True if `key` is in the table (follows the same probe sequence).
  bool contains(vm::Word key) const;

  std::size_t entered() const { return entered_; }
  std::size_t table_size() const { return slots_.size(); }
  double load_factor() const {
    return static_cast<double>(entered_) / static_cast<double>(slots_.size());
  }
  std::span<const vm::Word> slots() const { return slots_; }

 private:
  vm::Word probe_step(vm::Word key) const;
  /// Walks `key`'s probe sequence to the first unentered slot and enters
  /// the key there, charging the scalar unit per probe; `probes` receives
  /// the probe count. Returns false, with the table unchanged, when the
  /// walk exceeds the table size (a saturated probe cycle).
  bool enter(vm::Word key, std::size_t& probes);
  void grow();

  std::vector<vm::Word> slots_;
  ProbeVariant variant_;
  mutable vm::ScalarCost cost_;
  std::size_t entered_ = 0;
  std::size_t grows_ = 0;
};

/// Statistics returned by the vectorized multiple hash.
struct MultiHashStats {
  std::size_t iterations = 0;      ///< passes of the Figure 8 outer loop
  /// Length of the first (longest) pass: one lane per key given, so each
  /// copy of a key passed to the slot-tracking insert counts.
  std::size_t max_vector_len = 0;
  /// kTombstone slots keys landed in (slot-tracking insert only), counted
  /// per slot: copies of a key that entered one tombstone count once.
  std::size_t tombstones_reused = 0;
};

/// Figure 8: enters `keys` (distinct, non-negative) into the open-addressing
/// table `table` (every slot kUnentered or a previously entered key) using
/// the overwrite-and-check specialization of FOL — the keys themselves act
/// as labels. Entirely vector operations on `m`. Throws
/// folvec::RecoverableError on recoverable exhaustion (see
/// try_multi_hash_open_insert); note the table may hold a PARTIAL subset of
/// `keys` on that path — callers that recover by growing must re-derive
/// which keys remain (VectorHashMap::rehash does exactly that).
MultiHashStats multi_hash_open_insert(vm::VectorMachine& m,
                                      std::span<vm::Word> table,
                                      std::span<const vm::Word> keys,
                                      ProbeVariant variant);

/// Status-returning form: kTableFull when `keys` outnumber the free slots,
/// kProbeCycleSaturated when the retry loop sweeps the table without
/// converging (or fault injection forces it). `stats_out` (when non-null)
/// receives the pass statistics accumulated so far even on failure.
///
/// The sweep is bounded by the table size: a probe sequence advances by a
/// constant per-key step, so it cycles within `size` slots, and a key that
/// has not landed after `size` probes never will.
///
/// `slots_out`, when non-null, receives one slot per key: (*slots_out)[i] is
/// the slot keys[i] landed in, or -1 when it did not land (failure only).
/// Asking for slots partitions a lane index vector beside the keys in every
/// retry round. It also skips the O(size) free-slot precheck: the
/// slot-tracking caller (VectorHashMap) bounds its own load, and an overfull
/// table then reports kProbeCycleSaturated after the sweep. The
/// slot-tracking insert also treats a kTombstone slot as free: its caller
/// has confirmed every key absent, and a probe chain never has a kUnentered
/// slot before a live key, so a key entered at the first free-or-tombstone
/// slot of its chain stays findable and duplicates nothing.
/// The slot-tracking insert accepts duplicate keys. Equal keys hash to one
/// slot and step along one probe sequence, so every copy is stored in the
/// same round into the same slot, the check confirms them all, and they all
/// receive that one slot; the key is stored once. The "hashing.keys"
/// counter and stats_out->max_vector_len count lanes, one per copy.
/// stats_out->tombstones_reused counts the tombstones the landed keys took,
/// once per slot (on failure too, since a failed pass may already have
/// consumed some); it is counted on the host from the slot values the
/// lanes' gathers already returned, so it adds no vector op. Without
/// `slots_out` only kUnentered slots are free, keys must be distinct, and
/// the instruction stream is exactly the paper's listing.
Status try_multi_hash_open_insert(vm::VectorMachine& m,
                                  std::span<vm::Word> table,
                                  std::span<const vm::Word> keys,
                                  ProbeVariant variant,
                                  MultiHashStats* stats_out = nullptr,
                                  vm::WordVec* slots_out = nullptr);

/// Statistics returned by the vectorized lookup.
struct MultiHashLookupStats {
  /// Lanes still probing after a full sweep of the table — reported absent.
  /// Non-zero only when a table with no empty slot on some probe cycle is
  /// queried for an absent key (completely full, or a saturated cycle of a
  /// composite-sized table); also mirrored to the
  /// "hashing.lookup_sweep_exhausted" counter.
  std::size_t sweep_exhausted_lanes = 0;
};

/// Vectorized lookup: probes all keys in lockstep and returns each key's
/// slot, -1 when absent. A lane retires when it meets its key or a
/// kUnentered slot; any other slot value (another key, or a kTombstone)
/// keeps it walking. The walk is bounded by the table size, as
/// for the insert. Read-only, so index-vector duplicates are harmless (the
/// paper's Figure 2b case) — no FOL pass is needed, and duplicate query
/// keys are allowed.
vm::WordVec multi_hash_open_find(vm::VectorMachine& m,
                                 std::span<const vm::Word> table,
                                 std::span<const vm::Word> keys,
                                 ProbeVariant variant,
                                 MultiHashLookupStats* lookup_stats = nullptr);

}  // namespace folvec::hashing

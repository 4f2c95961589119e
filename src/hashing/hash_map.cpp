#include "hashing/hash_map.h"

#include <utility>

#include "support/faultsim.h"
#include "support/require.h"
#include "support/status.h"
#include "telemetry/metrics.h"

namespace folvec::hashing {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

namespace {

/// Capacities climb the ladder 67, 135, 271, ... (each rung about double
/// the last), every rung rounded up to a prime so that no key-dependent
/// probe cycle can saturate (the gcd hazard in open_table.h). Returns the
/// lowest such capacity >= `want`.
std::size_t round_capacity(std::size_t want) {
  std::size_t rung = 67;
  while (next_prime(rung) < want) rung = rung * 2 + 1;
  return next_prime(rung);
}

/// The capacity one rung above `capacity`: about double it.
std::size_t next_capacity(std::size_t capacity) {
  return round_capacity(capacity + 1);
}

/// Keys -1 and -2 would match the kUnentered and kTombstone slot markers.
void require_non_negative(std::span<const Word> keys) {
  for (const Word k : keys) {
    FOLVEC_REQUIRE(k >= 0, "keys must be non-negative");
  }
}

}  // namespace

VectorHashMap::VectorHashMap(std::size_t initial_capacity)
    : slots_(round_capacity(initial_capacity), kUnentered),
      values_(slots_.size(), 0) {}

WordVec VectorHashMap::insert_tracking_slots(VectorMachine& m,
                                             std::span<const Word> keys) {
  MultiHashStats stats;
  WordVec slots;
  const Status st = try_multi_hash_open_insert(
      m, slots_, keys, ProbeVariant::kKeyDependent, &stats, &slots);
  if (st.is_ok()) {
    tombstones_ -= stats.tombstones_reused;
    return slots;
  }
  if (stats.iterations != 0) {
    // The probe loop ran and swept the table without converging (saturated
    // probe cycles): keys that did land stay in slots_, possibly in
    // tombstones, so reconcile entered_ and tombstones_ with the table
    // before surfacing the error. Without this, a retry whose rehash also
    // fails (and rolls back to exactly this state) would treat the landed
    // strays as pre-existing keys forever: size() undercounts and a later
    // erase of those keys underflows the live count. An injected fault
    // leaves the table as it was.
    const WordVec all = m.load(slots_, 0, slots_.size());
    entered_ = m.count_true(m.ge_scalar(all, 0));
    tombstones_ = m.count_true(m.eq_scalar(all, kTombstone));
  }
  throw RecoverableError(st.code(), st.message());
}

void VectorHashMap::rehash(VectorMachine& m, std::size_t min_capacity) {
  ++rehashes_;
  // Compress the live keys and values out of the old arrays with vector
  // operations, then re-enter them into the fresh table (tombstones drop
  // out with the compress: live slots hold non-negative keys). Because a
  // live slot holds a real key whether or not entered_ counted it, this
  // also heals the partial state a failed insert_tracking_slots leaves
  // behind — the strays are simply re-entered and re-counted.
  const WordVec old_keys = m.load(slots_, 0, slots_.size());
  const Mask live = m.ge_scalar(old_keys, 0);
  const WordVec keys = m.compress(old_keys, live);
  const WordVec vals = m.compress(m.load(values_, 0, values_.size()), live);

  // Build into fresh storage and roll back if the re-entry itself fails
  // (injected fault, or a saturated cycle in the new size): the recovery
  // path must never lose values, and its caller retries with a bigger
  // capacity anyway.
  std::vector<Word> saved_slots = std::move(slots_);
  std::vector<Word> saved_values = std::move(values_);
  const std::size_t saved_entered = entered_;
  const std::size_t saved_tombstones = tombstones_;
  slots_.assign(round_capacity(min_capacity), kUnentered);
  values_.assign(slots_.size(), 0);
  entered_ = 0;
  tombstones_ = 0;
  try {
    const WordVec new_slots = insert_tracking_slots(m, keys);
    entered_ = keys.size();  // live keys are distinct
    m.scatter(values_, new_slots, vals);
  } catch (const RecoverableError&) {
    slots_ = std::move(saved_slots);
    values_ = std::move(saved_values);
    entered_ = saved_entered;
    tombstones_ = saved_tombstones;
    throw;
  }
}

void VectorHashMap::grow(VectorMachine& m, std::size_t need) {
  while (static_cast<double>(entered_ + tombstones_ + need) >
         0.7 * static_cast<double>(slots_.size())) {
    rehash(m, next_capacity(slots_.size()));
  }
}

std::size_t VectorHashMap::erase_batch(VectorMachine& m,
                                       std::span<const Word> keys) {
  require_non_negative(keys);
  if (keys.empty()) return 0;
  const WordVec slot_vec =
      multi_hash_open_find(m, slots_, keys, ProbeVariant::kKeyDependent);
  const Mask present = m.ne_scalar(slot_vec, -1);
  const WordVec hit_slots = m.compress(slot_vec, present);
  if (hit_slots.empty()) return 0;

  // Duplicate keys in the batch resolve to the same slot: one owner lane
  // per slot counts it and stores its tombstone, so the store has no
  // colliding lanes.
  const Mask owners = slot_owners(m, hit_slots);
  const std::size_t removed = m.count_true(owners);
  m.scatter_masked(slots_, hit_slots, m.splat(hit_slots.size(), kTombstone),
                   owners);
  entered_ -= removed;
  tombstones_ += removed;

  // Clean up once tombstones clutter a quarter of the table.
  if (4 * tombstones_ > slots_.size()) {
    rehash(m, std::max<std::size_t>(64, 3 * entered_));
  }
  return removed;
}

void VectorHashMap::upsert_batch(VectorMachine& m,
                                 std::span<const Word> keys,
                                 std::span<const Word> values) {
  FOLVEC_REQUIRE(keys.size() == values.size(),
                 "keys/values must have equal length");
  require_non_negative(keys);
  if (keys.empty()) return;
  // Graceful degradation: recoverable exhaustion mid-attempt (saturated
  // probe cycle, injected fault) is answered by rehashing to double
  // capacity and re-running the attempt. The re-run re-derives which keys
  // are present, so keys half-inserted by the failed attempt resolve as
  // existing and the batch completes exactly once per lane.
  constexpr std::size_t kMaxRecoveries = 4;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      upsert_batch_once(m, keys, values);
      if (attempt != 0) {
        telemetry::count("hashing.upsert_recoveries", attempt);
        if (faults() != nullptr) telemetry::count("fault.recovered.probe");
      }
      return;
    } catch (const RecoverableError&) {
      if (attempt == kMaxRecoveries) throw;
      try {
        rehash(m, next_capacity(slots_.size()));
      } catch (const RecoverableError&) {
        // The recovery was hit too (sustained injection). rehash rolled
        // itself back, so the next attempt retries from a consistent state.
      }
    }
  }
}

void VectorHashMap::upsert_batch_once(VectorMachine& m,
                                      std::span<const Word> keys,
                                      std::span<const Word> values) {
  grow(m, keys.size());

  // Split the batch into existing keys (value overwrite) and new keys
  // (Figure 8 insert). Lanes whose key is already in the map know their
  // slot now; the rest read -1.
  WordVec slot_vec =
      multi_hash_open_find(m, slots_, keys, ProbeVariant::kKeyDependent);

  const Mask absent = m.eq_scalar(slot_vec, -1);
  if (m.count_true(absent) > 0) {
    // Every absent lane inserts, duplicates included: copies of a key walk
    // one probe sequence in lockstep and land in one slot together, so the
    // Figure 8 check confirms them all. The map grows by the number of
    // distinct slots they took.
    const WordVec absent_keys = m.compress(keys, absent);
    const WordVec absent_lanes = m.compress(m.iota(keys.size()), absent);
    const WordVec new_slots = insert_tracking_slots(m, absent_keys);
    entered_ += m.count_true(slot_owners(m, new_slots));
    for (std::size_t i = 0; i < absent_lanes.size(); ++i) {
      slot_vec[static_cast<std::size_t>(absent_lanes[i])] = new_slots[i];
    }
  }

  // Value write: the order-preserving scatter makes "last lane wins" hold
  // for duplicate keys within the batch, matching sequential upserts.
  m.scatter_ordered(values_, slot_vec, values);
}

Mask VectorHashMap::slot_owners(VectorMachine& m,
                                std::span<const Word> slots) {
  // A lone lane owns its slot; no label round needed.
  if (slots.size() == 1) return Mask(1, 1);
  // One label round into the slots' value words: the order-preserving
  // scatter leaves exactly one label per distinct slot (the last lane's),
  // and only that lane reads its own label back. Being ordered, the scatter
  // never stores an amalgam of colliding labels, so no slot loses its
  // owner. The labels clobber those values, which the caller is about to
  // overwrite or erase anyway.
  const WordVec labels = m.iota(slots.size());
  m.scatter_ordered(values_, slots, labels);
  return m.eq(m.gather(values_, slots), labels);
}

WordVec VectorHashMap::lookup_batch(VectorMachine& m,
                                    std::span<const Word> keys,
                                    Word missing) const {
  require_non_negative(keys);
  const WordVec slots =
      multi_hash_open_find(m, slots_, keys, ProbeVariant::kKeyDependent);
  const Mask present = m.ne_scalar(slots, -1);
  const WordVec fetched = m.gather_masked(values_, slots, present, missing);
  return fetched;
}

bool VectorHashMap::contains(VectorMachine& m, Word key) const {
  FOLVEC_REQUIRE(key >= 0, "keys must be non-negative");
  const WordVec slots = multi_hash_open_find(m, slots_, WordVec{key},
                                             ProbeVariant::kKeyDependent);
  return slots[0] != -1;
}

WordVec VectorHashMap::live_keys(VectorMachine& m) const {
  const WordVec all = m.load(slots_, 0, slots_.size());
  return m.compress(all, m.ge_scalar(all, 0));
}

}  // namespace folvec::hashing

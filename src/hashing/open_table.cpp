#include "hashing/open_table.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "hashing/hash_fn.h"
#include "support/faultsim.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "vm/checker.h"

namespace folvec::hashing {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

std::size_t next_prime(std::size_t n) {
  if (n <= 2) return 2;
  const auto is_prime = [](std::size_t v) {
    for (std::size_t d = 3; d * d <= v; d += 2) {
      if (v % d == 0) return false;
    }
    return true;
  };
  std::size_t candidate = n | 1;  // every prime above 2 is odd
  while (!is_prime(candidate)) candidate += 2;
  return candidate;
}

ScalarOpenTable::ScalarOpenTable(std::size_t table_size, ProbeVariant variant,
                                 vm::CostAccumulator* cost)
    : slots_(table_size, kUnentered), variant_(variant), cost_(cost) {
  FOLVEC_REQUIRE(table_size > 32,
                 "the key-dependent probe step requires size(table) > 32");
}

Word ScalarOpenTable::probe_step(Word key) const {
  switch (variant_) {
    case ProbeVariant::kLinear:
      return 1;
    case ProbeVariant::kKeyDependent:
      return (key & 31) + 1;
  }
  return 1;
}

Status ScalarOpenTable::try_insert(Word key, std::size_t* probes_out) {
  FOLVEC_REQUIRE(key >= 0, "keys must be non-negative");
  if (FaultPlan* plan = faults();
      plan != nullptr && plan->fires(FaultSite::kProbeSaturation)) {
    telemetry::count("fault.injected.probe");
    return Status(StatusCode::kProbeCycleSaturated,
                  "injected probe-cycle saturation");
  }
  if (entered_ == slots_.size()) {
    // Genuinely full: a distinct condition from a saturated probe cycle,
    // and one growing also fixes.
    return Status(StatusCode::kTableFull,
                  "every slot of the " + std::to_string(slots_.size()) +
                      "-slot table is occupied");
  }
  std::size_t probes = 0;
  if (!enter(key, probes)) {
    telemetry::count("hashing.probe_cycle_saturated");
    return Status(
        StatusCode::kProbeCycleSaturated,
        "probe cycle of key " + std::to_string(key) + " (step " +
            std::to_string(probe_step(key)) + ", table size " +
            std::to_string(slots_.size()) +
            ") has no free slot although the table is not full");
  }
  telemetry::observe("hashing.scalar.probe_count", probes);
  if (probes_out != nullptr) *probes_out = probes;
  return Status::ok();
}

bool ScalarOpenTable::enter(Word key, std::size_t& probes) {
  const auto size = static_cast<Word>(slots_.size());
  // hash: one (slow) integer division plus bookkeeping on the scalar unit.
  cost_.div(1);
  cost_.alu(1);
  Word h = mod_hash(key, size);
  probes = 1;
  // Probe until an empty slot; each probe is a load + compare-and-branch,
  // and a re-probe adds the step arithmetic and another modulus.
  cost_.mem(1);
  cost_.branch(1);
  while (slots_[static_cast<std::size_t>(h)] != kUnentered) {
    FOLVEC_REQUIRE(slots_[static_cast<std::size_t>(h)] != key,
                   "duplicate key inserted into an open-addressing table");
    h = mod_hash(h + probe_step(key), size);
    ++probes;
    cost_.div(1);
    cost_.alu(2);
    cost_.mem(1);
    cost_.branch(1);
    // The sequence advances by a constant step, so its cycle length divides
    // the table size: after `size` probes every reachable slot has been
    // visited. Exceeding that means the key's cycle holds no free slot even
    // though the table is not full (gcd hazard — see the header).
    if (probes > slots_.size()) return false;
  }
  slots_[static_cast<std::size_t>(h)] = key;
  cost_.mem(1);
  ++entered_;
  return true;
}

std::size_t ScalarOpenTable::insert(Word key) {
  std::size_t probes = 0;
  const Status st = try_insert(key, &probes);
  if (!st.is_ok()) throw RecoverableError(st.code(), st.message());
  return probes;
}

void ScalarOpenTable::grow() {
  // The next prime above twice the current size: every probe cycle covers
  // the whole table, so saturation implies truly full.
  std::vector<Word> old = std::move(slots_);
  slots_.assign(next_prime(old.size() * 2 + 1), kUnentered);
  entered_ = 0;
  ++grows_;
  telemetry::count("hashing.scalar.grows");
  for (Word v : old) {
    if (v == kUnentered) continue;
    // Re-entry cannot fail: the new size is prime (full-cycle probing) and
    // strictly larger than the number of live keys. Injected faults are
    // ignored here — the re-entry IS the recovery path.
    std::size_t probes = 0;
    const bool entered = enter(v, probes);
    FOLVEC_CHECK(entered, "re-entry into a grown prime-sized table failed");
  }
}

std::size_t ScalarOpenTable::insert_or_grow(Word key) {
  // One grow always suffices for a genuine failure (prime size, cycle
  // covers the table, size > 2x the live keys), so the bound only trips
  // under sustained fault injection — surface that instead of growing
  // without limit.
  constexpr std::size_t kMaxGrows = 3;
  Status st;
  for (std::size_t attempt = 0; attempt <= kMaxGrows; ++attempt) {
    std::size_t probes = 0;
    st = try_insert(key, &probes);
    if (st.is_ok()) {
      if (attempt != 0 && faults() != nullptr) {
        telemetry::count("fault.recovered.probe");
      }
      return probes;
    }
    if (attempt < kMaxGrows) grow();
  }
  throw RecoverableError(st.code(), st.message());
}

bool ScalarOpenTable::contains(Word key) const {
  const auto size = static_cast<Word>(slots_.size());
  Word h = mod_hash(key, size);
  // A constant-step sequence cycles within `size` probes (see enter()).
  for (std::size_t probes = 0; probes < slots_.size(); ++probes) {
    const Word v = slots_[static_cast<std::size_t>(h)];
    if (v == key) return true;
    if (v == kUnentered) return false;
    h = mod_hash(h + probe_step(key), size);
  }
  return false;
}

namespace {

/// Subscript recalculation: moves every lane one step along its probe
/// sequence. The key-dependent variant separates keys that collided at the
/// same slot by giving each its own stride.
void advance_probe(VectorMachine& m, WordVec& hashed,
                   std::span<const Word> keys, ProbeVariant variant,
                   Word size) {
  WordVec tmp;
  WordVec step;
  switch (variant) {
    case ProbeVariant::kLinear:
      m.add_scalar_into(tmp, hashed, 1);
      m.mod_scalar_into(hashed, tmp, size);
      break;
    case ProbeVariant::kKeyDependent:
      m.and_scalar_into(tmp, keys, 31);
      m.add_scalar_into(step, tmp, 1);
      m.add_into(tmp, hashed, step);
      m.mod_scalar_into(hashed, tmp, size);
      break;
  }
}

}  // namespace

Status try_multi_hash_open_insert(VectorMachine& m, std::span<Word> table,
                                  std::span<const Word> keys,
                                  ProbeVariant variant,
                                  MultiHashStats* stats_out,
                                  WordVec* slots_out) {
  MultiHashStats scratch_stats;
  MultiHashStats& stats = stats_out != nullptr ? *stats_out : scratch_stats;
  stats = MultiHashStats{};
  if (slots_out != nullptr) slots_out->assign(keys.size(), -1);
  if (keys.empty()) return Status::ok();
  const auto size = static_cast<Word>(table.size());
  FOLVEC_REQUIRE(size > 32,
                 "the key-dependent probe step requires size(table) > 32");
  if (FaultPlan* plan = faults();
      plan != nullptr && plan->fires(FaultSite::kProbeSaturation)) {
    telemetry::count("fault.injected.probe");
    return Status(StatusCode::kProbeCycleSaturated,
                  "injected probe-cycle saturation");
  }
  if (slots_out == nullptr) {
    std::size_t free_slots = 0;
    for (Word v : table) free_slots += (v == kUnentered) ? 1u : 0u;
    if (keys.size() > free_slots) {
      // Data-dependent, not caller misuse: how full the table is depends on
      // what was previously inserted. Recover by growing and retrying.
      return Status(StatusCode::kTableFull,
                    std::to_string(keys.size()) + " keys for " +
                        std::to_string(free_slots) + " free slots");
    }
  }

  const vm::AlgoSpan span(m, "hashing.multi_insert");
  telemetry::count("hashing.insert_calls");
  telemetry::count("hashing.keys", keys.size());

  // Figure 8, first entry attempt: hash, then store keys into empty slots.
  // More than one key may be written to one entry — the ELS scatter keeps
  // exactly one intact, and the check below detects the losers. The whole
  // insert loop is the overwrite-and-check idiom, so the racing scatters
  // are a sanctioned data-race window over the table.
  const vm::ConflictWindow window(m, table, vm::WindowKind::kDataRace,
                                  "multiple hashing insert");
  // Working vectors shrink with the survivors each round, so the loop
  // holds no more memory than the keys still probing.
  WordVec key_vec = m.copy(keys);
  WordVec lane;  // key index of each lane; tracked only for slots_out
  if (slots_out != nullptr) lane = m.iota(keys.size());
  WordVec hashed = m.mod_scalar(key_vec, size);
  // The slot-tracking insert treats a tombstone (any negative slot) as
  // free, the listing only kUnentered; either way it is one compare. The
  // lanes that found a tombstone are noted on the host from the gathered
  // values, so the check below can count the tombstones actually taken.
  std::vector<std::size_t> found_tombstone;
  std::vector<Word> taken_tombstones;
  const auto store_into_free = [&] {
    const WordVec probed = m.gather(table, hashed);
    const Mask free = slots_out != nullptr ? m.lt_scalar(probed, 0)
                                           : m.eq_scalar(probed, kUnentered);
    if (slots_out != nullptr) {
      found_tombstone.clear();
      for (std::size_t i = 0; i < probed.size(); ++i) {
        if (probed[i] == kTombstone) found_tombstone.push_back(i);
      }
    }
    m.scatter_masked(table, hashed, key_vec, free);
  };
  store_into_free();
  stats.max_vector_len = key_vec.size();

  // Outer loop: detect which keys made it, pack the rest, re-probe.
  for (std::size_t iter = 0; iter < table.size(); ++iter) {
    ++stats.iterations;
    const vm::AlgoSpan round_span(m, "retry", iter);
    const Mask entered = m.eq(m.gather(table, hashed), key_vec);
    const std::size_t nrest = key_vec.size() - m.count_true(entered);
    // Copies of one key enter one slot together, and distinct keys never
    // share an entered slot, so each tombstone taken this round is counted
    // once however many lanes entered it.
    taken_tombstones.clear();
    for (const std::size_t i : found_tombstone) {
      if (entered[i]) taken_tombstones.push_back(hashed[i]);
    }
    std::sort(taken_tombstones.begin(), taken_tombstones.end());
    stats.tombstones_reused += static_cast<std::size_t>(
        std::unique(taken_tombstones.begin(), taken_tombstones.end()) -
        taken_tombstones.begin());
    // Keys confirmed entered this pass found their slot on probe iter+1.
    telemetry::observe("hashing.probe_count", iter + 1,
                       key_vec.size() - nrest);
    if (nrest == 0) {
      if (slots_out != nullptr) {
        // Every remaining lane entered at its current slot.
        for (std::size_t i = 0; i < lane.size(); ++i) {
          (*slots_out)[static_cast<std::size_t>(lane[i])] = hashed[i];
        }
      }
      telemetry::count("hashing.retry_rounds", stats.iterations);
      telemetry::observe("hashing.retry_rounds_per_call", stats.iterations);
      return Status::ok();
    }

    // One partition per control vector: the rejected halves carry on
    // probing, the kept halves are the entered slots and their lanes.
    auto [entered_slots, rest_hashed] = m.partition(hashed, entered);
    hashed = std::move(rest_hashed);
    key_vec = m.partition(key_vec, entered).second;
    if (slots_out != nullptr) {
      auto [entered_lanes, rest_lanes] = m.partition(lane, entered);
      for (std::size_t i = 0; i < entered_lanes.size(); ++i) {
        (*slots_out)[static_cast<std::size_t>(entered_lanes[i])] =
            entered_slots[i];
      }
      lane = std::move(rest_lanes);
    }

    advance_probe(m, hashed, key_vec, variant, size);
    store_into_free();
  }
  // A full sweep of the table without convergence: every remaining key's
  // probe cycle is saturated (composite size + gcd hazard). The table holds
  // the keys that did land; the caller recovers by growing and re-deriving
  // the remainder.
  telemetry::count("hashing.probe_cycle_saturated");
  return Status(StatusCode::kProbeCycleSaturated,
                "multiple hashing swept the table without converging (" +
                    std::to_string(key_vec.size()) +
                    " keys on saturated probe cycles)");
}

MultiHashStats multi_hash_open_insert(VectorMachine& m,
                                      std::span<Word> table,
                                      std::span<const Word> keys,
                                      ProbeVariant variant) {
  MultiHashStats stats;
  const Status st = try_multi_hash_open_insert(m, table, keys, variant, &stats);
  if (!st.is_ok()) throw RecoverableError(st.code(), st.message());
  return stats;
}

WordVec multi_hash_open_find(VectorMachine& m, std::span<const Word> table,
                             std::span<const Word> keys, ProbeVariant variant,
                             MultiHashLookupStats* lookup_stats) {
  if (lookup_stats != nullptr) *lookup_stats = MultiHashLookupStats{};
  const auto size = static_cast<Word>(table.size());
  FOLVEC_REQUIRE(size > 32,
                 "the key-dependent probe step requires size(table) > 32");
  WordVec result(keys.size(), -1);
  if (keys.empty()) return result;

  // Lockstep probing: lanes retire when they hit their key (found) or an
  // empty slot (absent); the rest advance along their probe sequence.
  WordVec key_vec = m.copy(keys);
  WordVec lane = m.iota(keys.size());
  WordVec hashed = m.mod_scalar(key_vec, size);
  for (std::size_t iter = 0; iter < table.size(); ++iter) {
    const WordVec probed = m.gather(table, hashed);
    const Mask hit = m.eq(probed, key_vec);
    const Mask miss = m.eq_scalar(probed, kUnentered);
    // Record hits through the lane index vector.
    const WordVec hit_lanes = m.compress(lane, hit);
    const WordVec hit_slots = m.compress(hashed, hit);
    for (std::size_t i = 0; i < hit_lanes.size(); ++i) {
      result[static_cast<std::size_t>(hit_lanes[i])] = hit_slots[i];
    }
    const Mask active = m.mask_not(m.mask_or(hit, miss));
    if (m.count_true(active) == 0) return result;
    key_vec = m.compress(key_vec, active);
    lane = m.compress(lane, active);
    hashed = m.compress(hashed, active);
    advance_probe(m, hashed, key_vec, variant, size);
  }
  // Lanes still probing after a full sweep of the table are reported
  // absent. Reachable only when some probe cycle holds no empty slot — the
  // table is completely full, or a composite size saturated a cycle (gcd
  // hazard, see the header) — so surface the count instead of falling
  // through silently: a caller seeing nonzero exhausted lanes on a table it
  // believes sparse has hit the hazard and should grow to a prime size.
  telemetry::count("hashing.lookup_sweep_exhausted", key_vec.size());
  if (lookup_stats != nullptr) {
    lookup_stats->sweep_exhausted_lanes = key_vec.size();
  }
  return result;
}

}  // namespace folvec::hashing

#include "fol/fol_star.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "fol/rounds.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "vm/buffer_pool.h"
#include "vm/checker.h"

namespace folvec::fol {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

namespace {

/// Whether the last remaining tuple shares a storage address with any other
/// remaining tuple this round — i.e. whether its survival depended on the
/// deadlock-avoidance scalar re-store rather than on being conflict-free.
/// Host-side accounting only: issues no machine instructions, so the chime
/// cost of the decomposition is unchanged.
bool last_tuple_contested(std::span<const vm::PooledVec> remaining,
                          std::size_t n) {
  if (n < 2) return false;
  std::unordered_set<Word> last_addrs;
  for (const auto& lane : remaining) last_addrs.insert((*lane)[n - 1]);
  for (const auto& lane : remaining) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      if (last_addrs.count((*lane)[p]) != 0) return true;
    }
  }
  return false;
}

/// Drains the remaining tuples greedily on the scalar unit: each tuple joins
/// the earliest new set in which none of its addresses has been used yet,
/// and self-conflicting tuples are forced out as trailing singletons (any
/// multi-tuple set containing one would address an area twice). The labels
/// are dead once the rounds stop, so each address's work word holds the
/// next new set free for it. One pass computes every tuple's set, a prefix
/// sum turns the per-set counts into offsets, and one pass places the
/// tuples. Returns the number of distinct addresses tracked.
std::size_t drain_greedy(const detail::Remaining& rest, std::span<Word> work,
                         FlatSets& sets, std::size_t& forced_singletons) {
  constexpr std::size_t kSelfConflicting = static_cast<std::size_t>(-1);
  const std::size_t n_rest = rest.size();
  const std::span<const vm::PooledVec> lanes = rest.idx;
  for (const auto& lane : lanes) {
    for (Word a : *lane) work[static_cast<std::size_t>(a)] = 0;
  }
  std::vector<std::size_t> set_of(n_rest);
  std::vector<std::size_t> next;  // tuples per new set, then its cursor
  std::size_t distinct = 0;
  std::size_t n_self = 0;
  for (std::size_t p = 0; p < n_rest; ++p) {
    bool self_conflict = false;
    for (std::size_t a = 0; a < lanes.size() && !self_conflict; ++a) {
      for (std::size_t b = a + 1; b < lanes.size(); ++b) {
        if ((*lanes[a])[p] == (*lanes[b])[p]) {
          self_conflict = true;
          break;
        }
      }
    }
    if (self_conflict) {
      set_of[p] = kSelfConflicting;
      ++n_self;
      continue;
    }
    std::size_t j = 0;
    for (const auto& lane : lanes) {
      j = std::max(j, static_cast<std::size_t>(
                          work[static_cast<std::size_t>((*lane)[p])]));
    }
    // j is at most one past the deepest set assigned so far, so this
    // creates at most one new (immediately non-empty) set.
    set_of[p] = j;
    if (j == next.size()) next.push_back(0);
    ++next[j];
    for (const auto& lane : lanes) {
      Word& next_free = work[static_cast<std::size_t>((*lane)[p])];
      if (next_free == 0) ++distinct;
      next_free = static_cast<Word>(j + 1);
    }
  }
  std::size_t start = 0;
  for (std::size_t& c : next) c = std::exchange(start, start + c);

  const std::size_t tail_offset = sets.lanes().size();
  const std::span<std::size_t> tail = sets.extend(n_rest);
  std::size_t singleton = n_rest - n_self;
  for (std::size_t p = 0; p < n_rest; ++p) {
    const std::size_t f =
        set_of[p] == kSelfConflicting ? singleton++ : next[set_of[p]]++;
    tail[f] = static_cast<std::size_t>(rest.pos[p]);
  }
  for (std::size_t end : next) sets.end_set(tail_offset + end);
  for (std::size_t f = n_rest - n_self; f < n_rest; ++f) {
    sets.end_set(tail_offset + f + 1);
  }
  forced_singletons += n_self;
  return distinct;
}

}  // namespace

StarDecomposition fol_star_decompose(VectorMachine& m,
                                     std::span<const WordVec> index_vectors,
                                     std::span<Word> work,
                                     std::size_t max_rounds) {
  StarDecomposition out;
  const std::size_t num_lanes = index_vectors.size();
  FOLVEC_REQUIRE(num_lanes > 0, "FOL* needs at least one index vector");
  const std::size_t n0 = index_vectors[0].size();
  for (const auto& v : index_vectors) {
    FOLVEC_REQUIRE(v.size() == n0, "all index vectors must have equal length");
  }
  if (n0 == 0) return out;

  const vm::AlgoSpan span(m, "fol_star.decompose");
  telemetry::count("fol_star.calls");
  telemetry::count("fol_star.tuples", n0);

  // Globally-unique labels: tuple position p, lane k gets label k*n0 + p.
  // The per-lane label and readback vectors are pooled like the control
  // vectors, so steady-state rounds allocate nothing.
  std::vector<vm::PooledVec> labels;
  labels.reserve(num_lanes);
  for (std::size_t k = 0; k < num_lanes; ++k) labels.emplace_back(m.pool(), n0);
  vm::PooledVec readback(m.pool(), n0);
  const auto lane_offset = [n0](std::size_t k) {
    return static_cast<Word>(k) * static_cast<Word>(n0);
  };

  Mask lane_ok;
  Mask tuple_next;
  const auto label_round = [&](const detail::Remaining& rest, Mask& tuple_ok) {
    const std::span<const vm::PooledVec> remaining = rest.idx;
    const std::size_t n = rest.size();
    // Step 1: compute every lane's labels, then scatter them, then re-write
    // the last tuple's labels with scalar stores, in lane order, so the
    // last tuple survives any cross-tuple conflict. (The scalar re-stores
    // sit between the scatters and the readbacks, so the fused
    // scatter_gather_eq kernel does not apply to this algorithm.)
    for (std::size_t k = 0; k < num_lanes; ++k) {
      m.add_scalar_into(*labels[k], rest.pos, lane_offset(k));
    }
    for (std::size_t k = 0; k < num_lanes; ++k) {
      m.scatter(work, *remaining[k], *labels[k]);
    }
    for (std::size_t k = 0; k < num_lanes; ++k) {
      const auto target = static_cast<std::size_t>((*remaining[k])[n - 1]);
      m.scalar_store(work, target, lane_offset(k) + rest.pos[n - 1]);
    }

    // Step 2: a tuple survives only if every lane's label survived: each
    // lane's label compare folds into the running conjunction.
    for (std::size_t k = 0; k < num_lanes; ++k) {
      m.gather_into(*readback, work, *remaining[k]);
      if (k == 0) {
        m.eq_into(tuple_ok, *readback, *labels[k]);
      } else {
        m.eq_into(lane_ok, *readback, *labels[k]);
        m.mask_and_into(tuple_next, tuple_ok, lane_ok);
        std::swap(tuple_ok, tuple_next);
      }
    }

    std::size_t n_ok = m.count_true(tuple_ok);
    const bool rescued_by_scalar = tuple_ok.test(n - 1) != 0;
    if (n_ok == 0) {
      // The last tuple self-conflicts; force it out as a singleton.
      tuple_ok[n - 1] = 1;
      tuple_ok.set_popcount(1);
      n_ok = 1;
      ++out.forced_singletons;
    } else if (rescued_by_scalar && last_tuple_contested(remaining, n)) {
      // A rescue counts whenever the scalar re-store decided a contested
      // address in the last tuple's favour — regardless of how many other
      // tuples survived alongside it.
      ++out.scalar_rescues;
    }
    return n_ok;
  };
  const auto drain = [&](const detail::Remaining& rest, std::span<Word> w) {
    return drain_greedy(rest, w, out.sets, out.forced_singletons);
  };

  const std::vector<std::span<const Word>> lanes(index_vectors.begin(),
                                                 index_vectors.end());
  const detail::RoundSpec spec{
      .window = "FOL* label round",
      .set_size = "fol_star.set_size",
      .contested = "fol_star.contested_tuples",
      .drains = "fol_star.adaptive_drains",
      .drained = "fol_star.adaptive_drained_tuples",
      .rounds = "fol_star.rounds",
      .rounds_per_call = "fol_star.rounds_per_call",
      .max_rounds = max_rounds,
  };
  const detail::RoundsResult res = detail::decompose_rounds(
      m, lanes, work, spec, out.sets, label_round, drain);
  out.drained_tuples = res.drained;
  out.unassigned = res.unassigned;

  if (m.audit_enabled()) {
    // Forced singletons are trivially conflict-free; every multi-tuple set
    // must be pairwise address-disjoint across all index vectors.
    for (const auto& set : out.sets) {
      if (set.size() > 1) m.checker()->audit_tuple_set(set, index_vectors);
    }
  }
  telemetry::count("fol_star.scalar_rescues", out.scalar_rescues);
  telemetry::count("fol_star.forced_singletons", out.forced_singletons);
  telemetry::count("fol_star.unassigned", out.unassigned);
  return out;
}

}  // namespace folvec::fol

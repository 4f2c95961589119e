#include "fol/fol_star.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

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
bool last_tuple_contested(const std::vector<vm::PooledVec>& remaining,
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

  // Tight interval facts for every index vector: each lane's scatters and
  // readbacks inherit the proven bounds through copy_into / partition_into.
  for (const auto& v : index_vectors) m.observe_range(v);

  // The whole tuple-labelling loop is one sanctioned conflict window: every
  // round deliberately scatters colliding labels into `work`.
  const vm::ConflictWindow window(m, work, vm::WindowKind::kLabelRound,
                                  "FOL* label round");

  // Step 0: globally-unique labels. Tuple position p, lane k gets label
  // k*n0 + p; positions are carried through the rounds unchanged so labels
  // stay unique and sets report original tuple numbers. All per-lane and
  // per-round working vectors are pooled and refilled with the *_into
  // primitives, so steady-state rounds allocate nothing.
  vm::BufferPool& pool = m.pool();
  std::vector<vm::PooledVec> remaining;
  std::vector<vm::PooledVec> next_remaining;
  std::vector<vm::PooledVec> labels;
  remaining.reserve(num_lanes);
  next_remaining.reserve(num_lanes);
  labels.reserve(num_lanes);
  for (std::size_t k = 0; k < num_lanes; ++k) {
    remaining.emplace_back(pool, n0);
    next_remaining.emplace_back(pool, n0);
    labels.emplace_back(pool, n0);
    m.copy_into(*remaining[k], index_vectors[k]);
  }
  vm::PooledVec positions(pool, n0);
  vm::PooledVec next_positions(pool, n0);
  vm::PooledVec readback(pool, n0);
  vm::PooledVec winners(pool, n0);
  vm::PooledVec assigned(pool, n0);  // kept half of the lane splits; unused
  m.iota_into(*positions, n0);

  const auto lane_label = [n0](std::size_t k, Word pos) {
    return static_cast<Word>(k) * static_cast<Word>(n0) + pos;
  };

  // The subset collection grows by one push_back per round; reserve a
  // round-count guess up front to skip the early reallocation ladder.
  out.sets.reserve(max_rounds != 0 ? max_rounds
                                   : std::min<std::size_t>(n0, 32));

  while (!positions->empty()) {
    if (max_rounds != 0 && out.sets.size() == max_rounds) {
      out.unassigned = positions->size();
      break;
    }
    const vm::AlgoSpan round_span(m, "round", out.sets.size());
    const std::size_t n = positions->size();

    // Step 1: compute every lane's labels, then scatter them, then re-write
    // the last tuple's labels with scalar stores, in lane order, so the
    // last tuple survives any cross-tuple conflict. (The scalar re-stores
    // sit between the scatters and the readbacks, so the fused
    // scatter_gather_eq kernel does not apply to this algorithm.)
    for (std::size_t k = 0; k < num_lanes; ++k) {
      m.add_scalar_into(*labels[k], *positions,
                        static_cast<Word>(k) * static_cast<Word>(n0));
    }
    for (std::size_t k = 0; k < num_lanes; ++k) {
      m.scatter(work, *remaining[k], *labels[k]);
    }
    for (std::size_t k = 0; k < num_lanes; ++k) {
      const auto target = static_cast<std::size_t>((*remaining[k])[n - 1]);
      m.scalar_store(work, target, lane_label(k, (*positions)[n - 1]));
    }

    // Step 2: a tuple survives only if every lane's label survived: each
    // lane's label compare folds into the running conjunction.
    Mask tuple_ok;
    Mask lane_ok;
    Mask tuple_next;
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
      // tuples survived alongside it. (The old `n_ok == 1` gate missed every
      // rescue that coexisted with surviving tuples, and charged a rescue
      // when an uncontested last tuple happened to be the sole survivor.)
      ++out.scalar_rescues;
    }

    telemetry::observe("fol_star.set_size", n_ok);
    telemetry::count("fol_star.contested_tuples", n - n_ok);

    // Step 3: one partition per control vector splits winners from the
    // still-contested tuples (replacing compress + mask_not + compress).
    m.partition_into(*winners, *next_positions, *positions, tuple_ok);

    std::vector<std::size_t> set;
    set.reserve(winners->size());
    for (Word w : *winners) set.push_back(static_cast<std::size_t>(w));
    if (m.audit_enabled() && set.size() > 1) {
      // Forced singletons are trivially conflict-free; every multi-tuple set
      // must be pairwise address-disjoint across all index vectors.
      m.checker()->audit_tuple_set(set, index_vectors);
    }
    out.sets.push_back(std::move(set));

    for (std::size_t k = 0; k < num_lanes; ++k) {
      m.partition_into(*assigned, *next_remaining[k], *remaining[k], tuple_ok);
      std::swap(*remaining[k], *next_remaining[k]);
    }
    std::swap(*positions, *next_positions);

    // Adaptive degradation: a collapsing surviving fraction on a large
    // remainder signals the pairwise-conflict chain worst case (O(N) rounds
    // of O(N·L)-lane scatters). Drain the tail greedily on the scalar unit:
    // each tuple joins the earliest set in which none of its addresses has
    // been used yet, self-conflicting tuples are forced out as trailing
    // singletons (any multi-tuple set containing one would address an area
    // twice), and bounded decompositions (max_rounds != 0) never drain —
    // their round/unassigned contract needs real rounds.
    const vm::MachineConfig& cfg = m.config();
    if (cfg.adaptive && max_rounds == 0 &&
        positions->size() >= cfg.adaptive_min_remaining &&
        n_ok * cfg.adaptive_collapse_den < n) {
      const std::size_t base = out.sets.size();
      const std::size_t n_rest = positions->size();
      std::unordered_map<Word, std::size_t> next_free;
      next_free.reserve(n_rest * num_lanes);
      std::vector<std::size_t> self_conflicting;
      for (std::size_t p = 0; p < n_rest; ++p) {
        bool self_conflict = false;
        for (std::size_t a = 0; a < num_lanes && !self_conflict; ++a) {
          for (std::size_t b = a + 1; b < num_lanes; ++b) {
            if ((*remaining[a])[p] == (*remaining[b])[p]) {
              self_conflict = true;
              break;
            }
          }
        }
        if (self_conflict) {
          self_conflicting.push_back(p);
          continue;
        }
        std::size_t j = 0;
        for (std::size_t k = 0; k < num_lanes; ++k) {
          const auto it = next_free.find((*remaining[k])[p]);
          if (it != next_free.end()) j = std::max(j, it->second);
        }
        // j is at most one past the deepest set assigned so far, so this
        // creates at most one new (immediately non-empty) set.
        while (base + j >= out.sets.size()) out.sets.emplace_back();
        out.sets[base + j].push_back(static_cast<std::size_t>((*positions)[p]));
        for (std::size_t k = 0; k < num_lanes; ++k) {
          next_free[(*remaining[k])[p]] = j + 1;
        }
      }
      if (m.audit_enabled()) {
        for (std::size_t j = base; j < out.sets.size(); ++j) {
          if (out.sets[j].size() > 1) {
            m.checker()->audit_tuple_set(out.sets[j], index_vectors);
          }
        }
      }
      for (std::size_t p : self_conflicting) {
        out.sets.push_back({static_cast<std::size_t>((*positions)[p])});
        ++out.forced_singletons;
      }
      out.drained_tuples = n_rest;
      m.scalar_alu(n_rest * num_lanes);
      m.scalar_mem(2 * next_free.size());
      m.scalar_branch(1);
      telemetry::count("fol_star.adaptive_drains");
      telemetry::count("fol_star.adaptive_drained_tuples", n_rest);
      break;
    }
  }
  telemetry::count("fol_star.rounds", out.sets.size());
  telemetry::observe("fol_star.rounds_per_call", out.sets.size());
  telemetry::count("fol_star.scalar_rescues", out.scalar_rescues);
  telemetry::count("fol_star.forced_singletons", out.forced_singletons);
  telemetry::count("fol_star.unassigned", out.unassigned);
  return out;
}

}  // namespace folvec::fol

#include "fol/rounds.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "support/require.h"
#include "telemetry/metrics.h"
#include "vm/checker.h"

namespace folvec::fol::detail {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;

RoundsResult decompose_rounds(VectorMachine& m,
                              std::span<const std::span<const Word>>
                                  index_vectors,
                              std::span<Word> work, const RoundSpec& spec,
                              FlatSets& sets, LabelRound label_round,
                              Drain drain) {
  RoundsResult res;
  const std::size_t num_lanes = index_vectors.size();
  const std::size_t n0 = index_vectors.front().size();

  // One host-side scan per index vector gives the analyzer a tight interval
  // fact; copy_into and partition_into preserve it, so every round's scatter
  // bounds stay proven and the per-lane audit pass can be elided.
  for (const auto& v : index_vectors) m.observe_range(v);

  // The label rounds deliberately scatter colliding labels; declare the
  // sanctioned conflict window so ScatterCheck verifies the readbacks
  // against the ELS contract instead of flagging the duplicates.
  const vm::ConflictWindow window(m, work, vm::WindowKind::kLabelRound,
                                  spec.window);

  // Step 0 (preprocessing): labels derive from the tuple positions, the
  // "most easily computable" unique labels per the paper's footnote 6.
  // Positions stay attached to their tuples across rounds so the sets report
  // original tuple numbers. Every control vector comes from the machine's
  // buffer pool: after the first round the loop is allocation-free.
  vm::BufferPool& pool = m.pool();
  std::vector<vm::PooledVec> idx;
  std::vector<vm::PooledVec> next_idx;
  idx.reserve(num_lanes);
  next_idx.reserve(num_lanes);
  for (std::size_t k = 0; k < num_lanes; ++k) {
    idx.emplace_back(pool, n0);
    next_idx.emplace_back(pool, n0);
    m.copy_into(*idx[k], index_vectors[k]);
  }
  vm::PooledVec pos(pool, n0);
  vm::PooledVec next_pos(pool, n0);
  vm::PooledVec winners(pool, n0);
  vm::PooledVec assigned(pool, n0);  // kept half of the idx splits; unused
  m.iota_into(*pos, n0);

  // Every assigned tuple lands in the one flat lane array, so reserving n0
  // lanes up front makes it a single allocation; the end offsets grow by one
  // per set, from a round-count guess.
  sets.reserve(spec.max_rounds != 0 ? spec.max_rounds
                                    : std::min<std::size_t>(n0, 32),
               n0);

  Mask survived(0);
  while (!pos->empty()) {
    if (spec.max_rounds != 0 && sets.size() == spec.max_rounds) {
      res.unassigned = pos->size();
      break;
    }
    FOLVEC_CHECK(sets.size() < n0,
                 "FOL failed to terminate within N rounds; the scatter "
                 "substrate violates the ELS condition");
    const vm::AlgoSpan round_span(m, "round", sets.size());
    const std::size_t n = pos->size();

    // Steps 1+2 (writing labels, detection of overwriting).
    const std::size_t n_survived = label_round(Remaining{idx, *pos}, survived);
    FOLVEC_CHECK(n_survived > 0,
                 "FOL round produced an empty set: a contested work word "
                 "holds none of the written labels (ELS violation)");
    telemetry::observe(spec.set_size, n_survived);
    telemetry::count(spec.contested, n - n_survived);

    // Step 3 (updating control variables): one partition per control
    // vector. The kept half of the position split is this round's set; the
    // kept halves of the index splits are dead (those tuples are assigned).
    m.partition_into(*winners, *next_pos, *pos, survived);
    const std::span<std::size_t> set = sets.extend(winners->size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      set[i] = static_cast<std::size_t>((*winners)[i]);
    }
    sets.end_set(sets.lanes().size());
    for (std::size_t k = 0; k < num_lanes; ++k) {
      m.partition_into(*assigned, *next_idx[k], *idx[k], survived);
      std::swap(*idx[k], *next_idx[k]);
    }
    std::swap(*pos, *next_pos);

    // Adaptive degradation (Theorems 5-6): a collapsing surviving fraction
    // on a large remainder signals the quadratic tail — e.g. every lane
    // addressing one area runs N rounds of N-lane scatters. The drain
    // assigns that tail in one O(k) scalar pass instead.
    if (m.config().adaptive && spec.max_rounds == 0 &&
        pos->size() >= kDrainMinRemaining &&
        n_survived * kDrainCollapseDen < n) {
      const std::size_t k = pos->size();
      const std::size_t distinct = drain(Remaining{idx, *pos}, work);
      // Scalar chime: one pass over the k drained tuples (an ALU op per
      // address for the bookkeeping, a load+store pair per distinct address,
      // one branch for the loop) — O(k) against the vector path's
      // O(k * max multiplicity). The FOL1 drain's set links (drained_pred,
      // drained_last) add no charge: it derives each lane's occurrence
      // ordinal from its predecessor's (ordinal = predecessor's + 1), so
      // the predecessor and each address's last occurrence are the per-lane
      // bookkeeping this ALU op already pays for.
      m.scalar_alu(k * num_lanes);
      m.scalar_mem(2 * distinct);
      m.scalar_branch(1);
      telemetry::count(spec.drains);
      telemetry::count(spec.drained, k);
      res.drained = k;
      break;
    }
  }
  telemetry::count(spec.rounds, sets.size());
  telemetry::observe(spec.rounds_per_call, sets.size());
  return res;
}

std::size_t drain_by_occurrence(const Remaining& rest, std::span<Word> work,
                                Decomposition& out) {
  FlatSets& sets = out.sets;
  const vm::WordVec& idx = *rest.idx.front();
  const std::size_t k = idx.size();
  FOLVEC_CHECK(k <= std::numeric_limits<std::uint32_t>::max(),
               "drain: too many lanes for a 32-bit occurrence ordinal");

  // Ordinal pass: each address's work word counts its occurrences so far,
  // which numbers every lane's occurrence (its new set); `next` counts the
  // lanes of each new set.
  std::vector<std::uint32_t> ordinal(k);
  std::vector<std::size_t> next;
  for (Word a : idx) work[static_cast<std::size_t>(a)] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j =
        static_cast<std::uint32_t>(work[static_cast<std::size_t>(idx[i])]++);
    ordinal[i] = j;
    if (j == next.size()) next.push_back(0);
    ++next[j];
  }
  // Prefix sum: `next` becomes each new set's first flat drained index.
  std::size_t start = 0;
  for (std::size_t& c : next) c = std::exchange(start, start + c);

  // Placement pass, in lane order: lane i takes the next slot of its set.
  // Its address's work word now holds the flat index of the address's latest
  // placed occurrence — lane i's predecessor one set earlier. A first-set
  // lane parks its address in drained_last (ordered as the first set), to be
  // swapped for the address's last flat index once every lane is placed.
  const std::size_t tail_offset = sets.lanes().size();
  const std::span<std::size_t> tail = sets.extend(k);
  const std::size_t first = next.size() > 1 ? next[1] : k;
  out.drained_from = sets.size();
  out.drained_pred.assign(k, -1);
  out.drained_last.resize(first);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t f = next[ordinal[i]]++;
    tail[f] = static_cast<std::size_t>(rest.pos[i]);
    Word& latest = work[static_cast<std::size_t>(idx[i])];
    if (ordinal[i] == 0) {
      out.drained_last[f] = idx[i];
    } else {
      out.drained_pred[f] = latest;
    }
    latest = static_cast<Word>(f);
  }
  // Each cursor stopped at its set's end.
  for (std::size_t end : next) sets.end_set(tail_offset + end);
  for (Word& last : out.drained_last) {
    last = work[static_cast<std::size_t>(last)];
  }
  return first;
}

}  // namespace folvec::fol::detail

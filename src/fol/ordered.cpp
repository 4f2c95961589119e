#include "fol/ordered.h"

#include "fol/rounds.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "vm/buffer_pool.h"

namespace folvec::fol {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;

Decomposition fol1_decompose_ordered(VectorMachine& m,
                                     std::span<const Word> index_vector,
                                     std::span<Word> work) {
  Decomposition out;
  if (index_vector.empty()) return out;

  const vm::AlgoSpan span(m, "fol1_ordered.decompose");
  telemetry::count("fol1_ordered.calls");
  telemetry::count("fol1_ordered.lanes", index_vector.size());

  // Ordered (VSTX) scatter of the labels in reverse lane order: the last
  // store wins deterministically, so each contested work word ends up
  // holding its earliest remaining occurrence's label. (Fused
  // scatter_gather_eq does not apply — the ordered scatter has its own
  // survivor rule.) The scratch vectors are pooled like the control vectors.
  const std::size_t n0 = index_vector.size();
  vm::PooledVec rev_idx(m.pool(), n0);
  vm::PooledVec rev_labels(m.pool(), n0);
  vm::PooledVec readback(m.pool(), n0);
  const auto label_round = [&](const detail::Remaining& rest, Mask& survived) {
    const vm::WordVec& idx = *rest.idx[0];
    m.reverse_into(*rev_idx, idx);
    m.reverse_into(*rev_labels, rest.pos);
    m.scatter_ordered(work, *rev_idx, *rev_labels);
    m.gather_into(*readback, work, idx);
    m.eq_into(survived, *readback, rest.pos);
    return m.count_true(survived);
  };
  // The ordered survivor rule makes the occurrence drain an exact replay of
  // what the remaining vector rounds would compute: each round keeps
  // precisely the earliest remaining occurrence of every address, i.e. the
  // j-th remaining occurrence (in lane order) joins set base+j — the drain's
  // assignment, lane for lane. So the drained decomposition is bit-identical
  // to the pure one, just O(k) scalar work instead of O(k * multiplicity).
  const std::span<const Word> lanes[] = {index_vector};
  const detail::RoundSpec spec{
      .window = "ordered FOL1 label round",
      .set_size = "fol1_ordered.set_size",
      .contested = "fol1_ordered.contested_lanes",
      .drains = "fol1_ordered.adaptive_drains",
      .drained = "fol1_ordered.adaptive_drained_lanes",
      .rounds = "fol1_ordered.rounds",
      .rounds_per_call = "fol1_ordered.rounds_per_call",
  };
  const auto drain = [&](const detail::Remaining& rest, std::span<Word> w) {
    return detail::drain_by_occurrence(rest, w, out);
  };
  out.drained_lanes = detail::decompose_rounds(m, lanes, work, spec, out.sets,
                                               label_round, drain)
                          .drained;
  return out;
}

std::size_t replay_journal(VectorMachine& m, std::span<const Word> targets,
                           std::span<const Word> values,
                           std::span<Word> work, std::span<Word> table) {
  FOLVEC_REQUIRE(targets.size() == values.size(),
                 "journal targets/values must have equal length");
  const vm::AlgoSpan span(m, "replay_journal");
  const Decomposition dec = fol1_decompose_ordered(m, targets, work);
  // One pooled pair of staging vectors serves every set; the per-set resize
  // never reallocates once the largest set has been seen.
  vm::PooledVec idx(m.pool(), targets.size());
  vm::PooledVec val(m.pool(), targets.size());
  for (const auto& set : dec.sets) {
    idx->resize(set.size());
    val->resize(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      (*idx)[i] = targets[set[i]];
      (*val)[i] = values[set[i]];
    }
    // Conflict-free within the set (Lemma 2), so the plain ELS scatter is
    // safe here; ordering across sets is what preserves replay order.
    m.scatter(table, *idx, *val);
  }
  return dec.rounds();
}

}  // namespace folvec::fol

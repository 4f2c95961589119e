#include "fol/fol1.h"

#include <algorithm>

#include "fol/invariants.h"
#include "fol/rounds.h"
#include "support/faultsim.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "vm/checker.h"

namespace folvec::fol {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

Decomposition fol1_decompose(VectorMachine& m,
                             std::span<const Word> index_vector,
                             std::span<Word> work) {
  Decomposition out;
  if (index_vector.empty()) return out;

  const vm::AlgoSpan span(m, "fol1.decompose");
  telemetry::count("fol1.calls");
  telemetry::count("fol1.lanes", index_vector.size());

  // The label round as one fused instruction: scatter the globally unique
  // lane positions, read back through the same indices, and keep the lanes
  // whose label survived. count_true charges its reduce either way, but the
  // fused kernel's cached popcount lets it skip the host-side scan.
  const auto label_round = [&](const detail::Remaining& rest, Mask& survived) {
    m.scatter_gather_eq_into(survived, work, *rest.idx[0], rest.pos);
    std::size_t n_survived = m.count_true(survived);
    if (n_survived > 0) return n_survived;
    // An empty round means a contested work word holds none of the written
    // labels — transient on hardware that occasionally drops the ELS
    // guarantee (and under injected kElsViolation faults), permanent on a
    // substrate that never provides it. Re-issuing the label round is always
    // safe: no lane was assigned, so the retry recomputes the identical
    // survivors from the identical inputs.
    constexpr std::size_t kMaxElsRetries = 2;
    std::size_t retries = 0;
    while (n_survived == 0 && retries < kMaxElsRetries) {
      ++retries;
      m.scatter_gather_eq_into(survived, work, *rest.idx[0], rest.pos);
      n_survived = m.count_true(survived);
    }
    telemetry::count("fol1.els_round_retries", retries);
    if (n_survived > 0 && faults() != nullptr) {
      telemetry::count("fault.recovered.els");
    }
    return n_survived;
  };
  const std::span<const Word> lanes[] = {index_vector};
  const detail::RoundSpec spec{
      .window = "FOL1 label round",
      .set_size = "fol1.set_size",
      .contested = "fol1.contested_lanes",
      .drains = "fol1.adaptive_drains",
      .drained = "fol1.adaptive_drained_lanes",
      .rounds = "fol1.rounds",
      .rounds_per_call = "fol1.rounds_per_call",
  };
  const auto drain = [&](const detail::Remaining& rest, std::span<Word> w) {
    return detail::drain_by_occurrence(rest, w, out);
  };
  out.drained_lanes = detail::decompose_rounds(m, lanes, work, spec, out.sets,
                                               label_round, drain)
                          .drained;
  if (m.audit_enabled()) {
    if (!satisfies_all_theorems(out, index_vector)) {
      m.checker()->audit_theorem_violation(
          "FOL1", "decomposition fails satisfies_all_theorems (Theorems 1-6)");
    }
    if (!drained_tail_consistent(out, index_vector)) {
      m.checker()->audit_theorem_violation(
          "FOL1", "drained sets fail drained_tail_consistent");
    }
  }
  return out;
}

Status fol1_try_decompose(VectorMachine& m, std::span<const Word> index_vector,
                          std::span<Word> work, Decomposition& out) {
  try {
    out = fol1_decompose(m, index_vector, work);
    return Status::ok();
  } catch (const RecoverableError& e) {
    return e.status();
  }
}

Decomposition fol1_decompose_plain(std::span<const Word> index_vector) {
  Word max_index = -1;
  for (Word v : index_vector) {
    // An InternalError, not a precondition: negative entries would otherwise
    // silently size the work array from a negative maximum (UB-adjacent) —
    // treat them as corrupt input caught by the library's own invariant.
    FOLVEC_CHECK(v >= 0,
                 "fol1_decompose_plain: index vector entries must be "
                 "non-negative to size the work array");
    max_index = std::max(max_index, v);
  }
  WordVec work(static_cast<std::size_t>(max_index + 1), 0);
  VectorMachine m;
  return fol1_decompose(m, index_vector, work);
}

std::vector<std::size_t> fol1_round_of_lane(VectorMachine& m,
                                            std::span<const Word> index_vector,
                                            std::span<Word> work) {
  const Decomposition dec = fol1_decompose(m, index_vector, work);
  std::vector<std::size_t> round(index_vector.size(), 0);
  for (std::size_t j = 0; j < dec.sets.size(); ++j) {
    for (std::size_t lane : dec.sets[j]) round[lane] = j;
  }
  return round;
}

}  // namespace folvec::fol

// The FOL round loop shared by FOL1 (paper Section 3.2), ordered FOL1
// (footnote 7) and FOL* (Section 3.3).
//
// All three are the same method over L index vectors (L = 1 for the FOL1
// flavours): label the remaining tuples, keep the tuples whose labels all
// survived as the next parallel-processable set, and loop on the rest. They
// differ only in how a round decides its survivors and in how the adaptive
// scalar drain assigns a collapsing tail, so those two steps are callables;
// everything else — the control vectors, the conflict window, the
// per-round partitions, termination, the drain trigger and the round
// telemetry — is written once here.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "fol/fol1.h"
#include "vm/machine.h"

namespace folvec::fol::detail {

/// Adaptive drain trigger (MachineConfig::adaptive): a round whose
/// survivors times kDrainCollapseDen fall below the lanes it started with,
/// leaving at least kDrainMinRemaining tuples unassigned, hands the rest to
/// the drain. Smaller tails finish faster as vector rounds.
inline constexpr std::size_t kDrainMinRemaining = 2048;
inline constexpr std::size_t kDrainCollapseDen = 8;

/// Non-owning reference to a callable, valid for the call it is passed to.
template <typename Sig>
class FnRef;

template <typename R, typename... Args>
class FnRef<R(Args...)> {
 public:
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, FnRef>, int> = 0>
  FnRef(const F& f)  // NOLINT(google-explicit-constructor)
      : ctx_(&f), call_([](const void* ctx, Args... args) -> R {
          return (*static_cast<const F*>(ctx))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(ctx_, std::forward<Args>(args)...);
  }

 private:
  const void* ctx_;
  R (*call_)(const void*, Args...);
};

/// The unassigned tuples at the start of a round (or of the drain): idx[k]
/// holds lane k's addresses, pos the tuples' original positions.
struct Remaining {
  std::span<const vm::WordVec> idx;
  const vm::WordVec& pos;

  std::size_t size() const { return pos.size(); }
};

/// Sets `survived` to the tuples whose labels survived this round and
/// returns their count (0 only on an ELS violation).
using LabelRound = FnRef<std::size_t(const Remaining&, vm::Mask&)>;

/// Appends every remaining tuple to the flavour's sets in scalar passes
/// and returns the number of distinct addresses it tracked
/// (decompose_rounds charges the scalar chime from it). The second argument
/// is the work area: its labels are dead once the rounds stop, so the drain
/// may use the words of the remaining addresses as per-address scratch.
using Drain = FnRef<std::size_t(const Remaining&, std::span<vm::Word>)>;

/// What differs between the flavours besides the two callables.
struct RoundSpec {
  const char* window;           // ConflictWindow label
  const char* set_size;         // histogram: survivors per round
  const char* contested;        // counter: lanes that lost a round
  const char* drains;           // counter: drained decompositions
  const char* drained;          // counter: drained tuples
  const char* rounds;           // counter: sets produced
  const char* rounds_per_call;  // histogram: sets per decomposition
  /// Sets to produce before stopping; 0 decomposes every tuple. A bounded
  /// decomposition never drains.
  std::size_t max_rounds = 0;
};

struct RoundsResult {
  std::size_t drained = 0;     // tuples assigned by the drain
  std::size_t unassigned = 0;  // tuples left when max_rounds cut the loop
};

/// Decomposes the tuples of `index_vectors` (equal lengths, at least one
/// tuple, every address indexing `work`) into `sets`: each round appends its
/// survivors as the next set. Labels are written into `work`, which is
/// clobbered.
RoundsResult decompose_rounds(vm::VectorMachine& m,
                              std::span<const std::span<const vm::Word>>
                                  index_vectors,
                              std::span<vm::Word> work, const RoundSpec& spec,
                              FlatSets& sets, LabelRound label_round,
                              Drain drain);

/// The FOL1 drain (L = 1): the j-th remaining occurrence of an address, in
/// lane order, joins the j-th new set of `out.sets`. The sets stay disjoint,
/// cover the rest, have non-increasing sizes, and their count is the maximum
/// remaining multiplicity — every theorem of the pure rounds holds. Also
/// records how the new sets chain together (Decomposition::drained_from,
/// drained_pred, drained_last). A counting sort by occurrence ordinal: one
/// pass numbers each lane's occurrence in its address's `work` word and
/// counts the lanes per ordinal, a prefix sum turns the counts into set
/// offsets, and one placement pass writes every lane and its links.
std::size_t drain_by_occurrence(const Remaining& rest, std::span<vm::Word> work,
                                Decomposition& out);

}  // namespace folvec::fol::detail

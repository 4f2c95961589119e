#include "fol/invariants.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace folvec::fol {

bool is_disjoint_cover(const Decomposition& d, std::size_t n) {
  std::vector<char> seen(n, 0);
  std::size_t total = 0;
  for (const auto& set : d.sets) {
    for (std::size_t lane : set) {
      if (lane >= n || seen[lane]) return false;
      seen[lane] = 1;
      ++total;
    }
  }
  return total == n;
}

bool sets_are_conflict_free(const Decomposition& d,
                            std::span<const vm::Word> index_vector) {
  for (const auto& set : d.sets) {
    std::unordered_set<vm::Word> targets;
    targets.reserve(set.size());
    for (std::size_t lane : set) {
      if (lane >= index_vector.size()) return false;
      if (!targets.insert(index_vector[lane]).second) return false;
    }
  }
  return true;
}

bool sizes_non_increasing(const Decomposition& d) {
  for (std::size_t j = 1; j < d.sets.size(); ++j) {
    if (d.sets[j].size() > d.sets[j - 1].size()) return false;
  }
  return true;
}

std::size_t max_multiplicity(std::span<const vm::Word> index_vector) {
  std::unordered_map<vm::Word, std::size_t> counts;
  counts.reserve(index_vector.size());
  std::size_t max_count = 0;
  for (vm::Word v : index_vector) {
    max_count = std::max(max_count, ++counts[v]);
  }
  return max_count;
}

bool is_minimal(const Decomposition& d,
                std::span<const vm::Word> index_vector) {
  return d.rounds() == max_multiplicity(index_vector);
}

bool satisfies_all_theorems(const Decomposition& d,
                            std::span<const vm::Word> index_vector) {
  return is_disjoint_cover(d, index_vector.size()) &&
         sets_are_conflict_free(d, index_vector) && sizes_non_increasing(d) &&
         is_minimal(d, index_vector);
}

bool drained_tail_consistent(const Decomposition& d,
                             std::span<const vm::Word> index_vector) {
  if (d.drained_lanes == 0) {
    return d.drained_from == 0 && d.drained_pred.empty() &&
           d.drained_last.empty();
  }
  if (d.drained_from >= d.sets.size()) return false;
  // Flat drained lanes: their addresses and the set each one sits in.
  std::vector<vm::Word> addr;
  std::vector<std::size_t> set_of;
  for (std::size_t j = d.drained_from; j < d.sets.size(); ++j) {
    for (std::size_t lane : d.sets[j]) {
      if (lane >= index_vector.size()) return false;
      addr.push_back(index_vector[lane]);
      set_of.push_back(j - d.drained_from);
    }
  }
  const std::size_t k = addr.size();
  if (k != d.drained_lanes || d.drained_pred.size() != k) return false;
  for (std::size_t f = 0; f < k; ++f) {
    const vm::Word p = d.drained_pred[f];
    if (set_of[f] == 0) {
      if (p != -1) return false;
      continue;
    }
    if (p < 0 || static_cast<std::size_t>(p) >= k) return false;
    const auto pf = static_cast<std::size_t>(p);
    if (set_of[pf] + 1 != set_of[f] || addr[pf] != addr[f]) return false;
  }
  // Each address's last set, then one drained_last entry per address there.
  std::unordered_map<vm::Word, std::size_t> last_set;
  for (std::size_t f = 0; f < k; ++f) last_set[addr[f]] = set_of[f];
  if (d.drained_last.size() != last_set.size()) return false;
  std::unordered_set<vm::Word> named;
  for (vm::Word l : d.drained_last) {
    if (l < 0 || static_cast<std::size_t>(l) >= k) return false;
    const auto lf = static_cast<std::size_t>(l);
    if (last_set.at(addr[lf]) != set_of[lf]) return false;
    if (!named.insert(addr[lf]).second) return false;
  }
  return true;
}

}  // namespace folvec::fol

#include "sorting/dist_count.h"

#include <vector>

#include "fol/fol1.h"
#include "sorting/scan.h"
#include "support/require.h"
#include "telemetry/metrics.h"

namespace folvec::sorting {

using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

namespace {

void check_input(std::span<const Word> data, Word range) {
  FOLVEC_REQUIRE(range > 0, "range must be positive");
  for (Word x : data) {
    FOLVEC_REQUIRE(x >= 0 && x < range, "data values must lie in [0, range)");
  }
}

}  // namespace

void dist_count_sort_scalar(std::span<Word> data, Word range,
                            vm::CostAccumulator* cost) {
  check_input(data, range);
  vm::ScalarCost sc(cost);
  std::vector<Word> count(static_cast<std::size_t>(range), 0);
  sc.mem(count.size());
  sc.branch(count.size());

  // Histogram.
  for (Word x : data) {
    ++count[static_cast<std::size_t>(x)];
    sc.alu(1);
    sc.mem(3);
    sc.branch(1);
  }
  // count[v] := number of elements <= v.
  inclusive_scan_scalar(count, cost);
  // Stable backward placement.
  std::vector<Word> out(data.size());
  for (std::size_t j = data.size(); j-- > 0;) {
    const auto v = static_cast<std::size_t>(data[j]);
    out[static_cast<std::size_t>(--count[v])] = data[j];
    sc.alu(2);
    sc.mem(4);
    sc.branch(1);
  }
  for (std::size_t j = 0; j < data.size(); ++j) {
    data[j] = out[j];
    sc.mem(2);
    sc.branch(1);
  }
}

DistCountStats dist_count_sort_vector(VectorMachine& m, std::span<Word> data,
                                      Word range) {
  DistCountStats stats;
  check_input(data, range);
  if (data.empty()) return stats;
  const vm::AlgoSpan span(m, "sorting.dist_count");
  telemetry::count("sorting.dist_count.calls");

  std::vector<Word> count(static_cast<std::size_t>(range));
  m.fill(count, 0);

  // One FOL1 decomposition of the key vector serves both shared-update
  // phases: within a set, all key values are distinct, so counter updates
  // and output placements are conflict-free.
  std::vector<Word> work(static_cast<std::size_t>(range), 0);
  const WordVec keys = m.copy(data);
  const fol::Decomposition dec = fol::fol1_decompose(m, keys, work);
  m.retire_work(work);
  stats.fol_rounds = dec.rounds();

  std::vector<WordVec> set_keys(dec.rounds());
  for (std::size_t j = 0; j < dec.rounds(); ++j) {
    set_keys[j].reserve(dec.sets[j].size());
    for (std::size_t lane : dec.sets[j]) set_keys[j].push_back(keys[lane]);
  }

  // Per-set scratch vectors are refilled in place, so the two shared-update
  // phases allocate nothing per set once the largest set has been seen.
  WordVec c;
  WordVec pos;

  // Histogram: per-set gather-increment-scatter.
  for (const WordVec& sk : set_keys) {
    m.gather_into(c, count, sk);
    m.add_scalar_into(pos, c, 1);
    m.scatter(count, sk, pos);
  }

  // count[v] := number of elements <= v.
  inclusive_scan_vector(m, count);

  // Placement: each set's lanes take the current top slot of their value
  // group and decrement the group counter.
  std::vector<Word> out(data.size());
  for (const WordVec& sk : set_keys) {
    m.gather_into(c, count, sk);
    m.add_scalar_into(pos, c, -1);
    m.scatter(out, pos, sk);
    m.scatter(count, sk, pos);
  }

  m.store(data, 0, m.load(out, 0, out.size()));
  telemetry::count("sorting.dist_count.fol_rounds", stats.fol_rounds);
  return stats;
}

}  // namespace folvec::sorting

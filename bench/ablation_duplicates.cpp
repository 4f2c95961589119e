// Ablation: FOL1 cost versus duplicate multiplicity (Theorems 4 and 6).
//
// With N lanes spread over D distinct storage areas, the maximum
// multiplicity is ceil(N/D) and FOL1 needs exactly that many rounds
// (Lemma 3 / Theorem 5). Theorem 4 says the run time is O(N) while sharing
// is rare; Theorem 6 says it degrades to O(N^2) when every lane hits one
// area. This bench sweeps D from N down to 1 and reports modeled time and
// rounds, demonstrating the transition, plus the N-scaling at fixed
// duplication to exhibit O(N) behaviour. A last table prices in-batch
// duplicates in a VectorHashMap upsert, which Figure 8 absorbs: copies of a
// new key share the slot the insert gives them.
#include <iostream>
#include <numeric>
#include <unordered_map>

#include "bench_harness/experiments.h"
#include "bench_harness/report.h"
#include "hashing/hash_map.h"
#include "support/prng.h"
#include "support/require.h"
#include "support/table_printer.h"

int main() {
  using namespace folvec;
  bench::BenchReport report("ablation_duplicates");
  report.config("n", 4096);
  report.config("scaling_duplication_percent", 1);
  const vm::CostParams params = vm::CostParams::s810_like();

  {
    const std::size_t n = 4096;
    TablePrinter table(
        {"distinct", "max_mult", "rounds", "vector_us", "scalar_us"});
    double time_unique = 0;
    double time_all_same = 0;
    for (std::size_t d : {n, n / 2, n / 8, n / 64, n / 512, std::size_t{2},
                          std::size_t{1}}) {
      // adaptive=false: this sweep *measures* the pure Theorem 5/6 round
      // structure; the adaptive drain (measured in the next block) exists
      // precisely to cut the quadratic tail this table demonstrates.
      const bench::RunResult r =
          bench::run_fol1_decompose(n, d, 42, params, /*adaptive=*/false);
      const std::size_t max_mult = (n + d - 1) / d;
      FOLVEC_CHECK(r.iterations == max_mult,
                   "rounds must equal the maximum multiplicity (Theorem 5)");
      table.add_row({Cell(static_cast<long long>(d)),
                     Cell(static_cast<long long>(max_mult)),
                     Cell(r.iterations), Cell(r.vector_us, 1),
                     Cell(r.scalar_us, 1)});
      if (d == n) time_unique = r.vector_us;
      if (d == 1) time_all_same = r.vector_us;
    }
    table.print(std::cout,
                "Ablation: FOL1 rounds and cost vs duplication (N=4096)");
    report.add_table("Ablation: FOL1 rounds and cost vs duplication (N=4096)",
                     table);
    report.note("worst_best_time_ratio", time_all_same / time_unique);
    std::cout << "\nworst/best time ratio: " << time_all_same / time_unique
              << "x (Theorem 6: all-duplicates costs O(N^2))\n\n";
    FOLVEC_CHECK(time_all_same > 50.0 * time_unique,
                 "all-duplicate input must be drastically slower");

    // Graceful degradation: the same pathological inputs with the adaptive
    // drain on (the production default). The collapse detector hands the
    // high-multiplicity tail to the scalar unit in one O(k) pass, so the
    // worst case lands within a small constant of the duplicate-free run
    // instead of the ~N/2-fold Theorem 6 blowup above.
    TablePrinter adaptive_table(
        {"distinct", "rounds", "pure_us", "adaptive_us", "speedup"});
    double adaptive_all_same = 0;
    for (std::size_t d : {std::size_t{2}, std::size_t{1}}) {
      const bench::RunResult pure =
          bench::run_fol1_decompose(n, d, 42, params, /*adaptive=*/false);
      const bench::RunResult drained =
          bench::run_fol1_decompose(n, d, 42, params, /*adaptive=*/true);
      FOLVEC_CHECK(drained.iterations == pure.iterations,
                   "the drain must preserve Theorem 5 round counts");
      adaptive_table.add_row(
          {Cell(static_cast<long long>(d)), Cell(drained.iterations),
           Cell(pure.vector_us, 1), Cell(drained.vector_us, 1),
           Cell(pure.vector_us / drained.vector_us, 1)});
      if (d == 1) adaptive_all_same = drained.vector_us;
    }
    adaptive_table.print(
        std::cout, "Ablation: adaptive drain on the Theorem 6 worst case");
    report.add_table("Ablation: adaptive drain on the Theorem 6 worst case",
                     adaptive_table);
    const double adaptive_ratio = adaptive_all_same / time_unique;
    report.note("adaptive_worst_best_time_ratio", adaptive_ratio);
    std::cout << "\nadaptive worst/best time ratio: " << adaptive_ratio
              << "x (drain bounds the Theorem 6 quadratic)\n\n";
    FOLVEC_CHECK(adaptive_ratio < 10.0,
                 "adaptive drain must keep the worst case within 10x of the "
                 "duplicate-free run");

    // The same worst case through Figure 7's consumer: a chain insert into
    // a 4099-entry table links the drained sets in one pass, so the
    // all-duplicates batch costs no more than the duplicate-free one. A
    // set-at-a-time link of the drained tail would pay one vector startup
    // per set and push this ratio back above 30.
    constexpr std::size_t kChainTable = 4099;
    TablePrinter chain_table({"distinct", "chain_us", "scalar_us"});
    double chain_best = 0;
    double chain_worst = 0;
    for (std::size_t d : {n, std::size_t{1}}) {
      const bench::RunResult r =
          bench::run_chain_insert(kChainTable, n, d, 42, params);
      chain_table.add_row({Cell(static_cast<long long>(d)),
                           Cell(r.vector_us, 1), Cell(r.scalar_us, 1)});
      (d == n ? chain_best : chain_worst) = r.vector_us;
    }
    const char* chain_title =
        "Ablation: adaptive chain insert (Figure 7) on the Theorem 6 worst "
        "case (N=4096, table 4099)";
    chain_table.print(std::cout, chain_title);
    report.add_table(chain_title, chain_table);
    const double chain_ratio = chain_worst / chain_best;
    report.note("adaptive_chain_insert_worst_best_time_ratio", chain_ratio);
    std::cout << "\nadaptive chain insert worst/best time ratio: "
              << chain_ratio << "x (the drained tail links in one pass)\n\n";
    FOLVEC_CHECK(chain_ratio < 2.0,
                 "the drained chain insert must stay within 2x of the "
                 "duplicate-free insert");
  }

  {
    TablePrinter table({"N", "vector_us", "us_per_lane"});
    double prev_per_lane = 0;
    bool first = true;
    for (std::size_t n : {512u, 1024u, 2048u, 4096u, 8192u, 16384u}) {
      // Fixed 1% duplication: the Theorem 4 regime.
      const bench::RunResult r =
          bench::run_fol1_decompose(n, n - n / 100, 7, params);
      const double per_lane = r.vector_us / static_cast<double>(n);
      table.add_row({Cell(static_cast<long long>(n)), Cell(r.vector_us, 1),
                     Cell(per_lane, 4)});
      if (!first) {
        FOLVEC_CHECK(per_lane < prev_per_lane * 1.25,
                     "per-lane cost must stay ~flat with rare sharing "
                     "(Theorem 4: O(N))");
      }
      prev_per_lane = per_lane;
      first = false;
    }
    table.print(std::cout,
                "Ablation: FOL1 scaling with 1% duplication (Theorem 4)");
    report.add_table("Ablation: FOL1 scaling with 1% duplication (Theorem 4)",
                     table);
    std::cout << "\nper-lane cost is flat: FOL1 is O(N) when sharing is "
                 "rare\n";
  }

  {
    // A 2^16-lane upsert of new keys into a presized VectorHashMap (no
    // rehash), one lane in eight repeating an earlier lane's key, priced
    // per lane against the bare slot-tracking Figure 8 insert of 2^16
    // distinct keys into a table of the same size. The upsert adds its
    // lookup, the value write and one label round that counts distinct
    // slots, all vector work; a per-lane scalar dedup of the new keys would
    // add its scalar cycles to every lane on top.
    using vm::Word;
    constexpr std::size_t kLanes = std::size_t{1} << 16;
    const auto pool = random_unique_keys(kLanes, Word{1} << 40, 91);
    Xoshiro256 rng(97);
    vm::WordVec repeated(pool.begin(), pool.end());
    for (std::size_t i = 7; i < kLanes; i += 8) {
      repeated[i] = repeated[static_cast<std::size_t>(
          rng.in_range(0, static_cast<Word>(i) - 1))];
    }
    const std::size_t capacity = hashing::VectorHashMap(2 * kLanes).capacity();
    vm::VectorMachine insert_m;
    std::vector<Word> table(capacity, hashing::kUnentered);
    vm::WordVec slots;
    const Status st = hashing::try_multi_hash_open_insert(
        insert_m, table, pool, hashing::ProbeVariant::kKeyDependent, nullptr,
        &slots);
    FOLVEC_CHECK(st.is_ok(), "the presized Figure 8 insert must succeed");
    const double insert_per_lane =
        insert_m.cost().cycles(params) / static_cast<double>(kLanes);

    TablePrinter table_out({"batch", "lanes", "distinct", "cycles_per_lane"});
    table_out.add_row({Cell("Figure 8 insert, distinct"),
                       Cell(static_cast<long long>(kLanes)),
                       Cell(static_cast<long long>(kLanes)),
                       Cell(insert_per_lane, 2)});
    vm::WordVec values(kLanes);
    std::iota(values.begin(), values.end(), Word{0});
    double repeats_per_lane = 0;
    for (const bool with_repeats : {false, true}) {
      const vm::WordVec& keys = with_repeats ? repeated : pool;
      std::unordered_map<Word, Word> last;  // sequential upsert semantics
      for (std::size_t i = 0; i < kLanes; ++i) last[keys[i]] = values[i];
      vm::VectorMachine m;
      hashing::VectorHashMap map(2 * kLanes);
      map.upsert_batch(m, keys, values);
      const double per_lane =
          m.cost().cycles(params) / static_cast<double>(kLanes);
      FOLVEC_CHECK(map.capacity() == capacity && map.rehash_count() == 0,
                   "the presized upsert must not rehash");
      FOLVEC_CHECK(map.size() == last.size(),
                   "the upsert must count each distinct key once");
      const vm::WordVec got = map.lookup_batch(m, keys, -1);
      for (std::size_t i = 0; i < kLanes; ++i) {
        FOLVEC_CHECK(got[i] == last.at(keys[i]),
                     "the last lane of each key must win");
      }
      table_out.add_row(
          {Cell(with_repeats ? "map upsert, 1-in-8 repeats"
                             : "map upsert, distinct"),
           Cell(static_cast<long long>(kLanes)),
           Cell(static_cast<long long>(last.size())), Cell(per_lane, 2)});
      if (with_repeats) repeats_per_lane = per_lane;
    }
    const char* title =
        "Ablation: in-batch duplicates in a VectorHashMap upsert (2^16 "
        "lanes, modeled cycles per lane)";
    table_out.print(std::cout, title);
    report.add_table(title, table_out);
    const double ratio = repeats_per_lane / insert_per_lane;
    report.note("map_upsert_repeats_insert_cycle_ratio", ratio);
    std::cout << "\nupsert with repeats / bare insert, cycles per lane: "
              << ratio << "x\n";
  }
  return 0;
}

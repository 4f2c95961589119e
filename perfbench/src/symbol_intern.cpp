// symbol_intern: paper Figure 7, FOL1 over heavily shared symbolic keys.
//
// Symbol ids are Zipf(1.1) ranks over a 2^18-id vocabulary, scrambled into
// 40-bit ids so hot symbols are not small integers. They are interned into
// a 2^17-chain ChainTable through multi_hash_chain_insert in 2^16-symbol
// batches. Setup interns a 2^20-symbol base corpus. The timed phase replays
// episodes of kBatches batches, each starting from a copy of the base
// table, so the node pool stays bounded and every episode does the same
// work. The workload is write-only: multi_count over a multiset chain costs
// O(longest chain) per query.
#include <algorithm>
#include <cstdint>
#include <iterator>

#include "harness.h"
#include "hashing/chain_table.h"
#include "support/prng.h"

namespace perfbench {
namespace {

using folvec::Xoshiro256;
using folvec::hashing::ChainTable;
namespace vm = folvec::vm;

constexpr std::size_t kVocab = std::size_t{1} << 18;
constexpr std::size_t kChains = std::size_t{1} << 17;
constexpr std::size_t kBaseSymbols = std::size_t{1} << 20;
constexpr std::size_t kBatch = std::size_t{1} << 16;
constexpr std::size_t kBatches = 16;
constexpr std::size_t kWarmupBatches = 2;
constexpr std::size_t kCapacity = kBaseSymbols + kBatches * kBatch;

class SymbolIntern final : public Workload {
 public:
  explicit SymbolIntern(std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const std::uint64_t salt = rng.next();
    const ZipfSampler zipf(kVocab, 1.1);
    const auto draw = [&] { return scramble40(zipf.draw(rng), salt); };
    base_.resize(kBaseSymbols);
    for (Word& s : base_) s = draw();
    batches_.assign(kBatches, WordVec(kBatch));
    for (WordVec& b : batches_) {
      for (Word& s : b) s = draw();
    }
  }

  void setup() override {
    issued_ = 0;
    machine_ = std::make_unique<vm::VectorMachine>(deployment_machine_config());
    table_ = std::make_unique<ChainTable>(kChains, kCapacity);
    for (std::size_t off = 0; off < kBaseSymbols; off += kBatch) {
      folvec::hashing::multi_hash_chain_insert(
          *machine_, *table_, std::span(base_).subspan(off, kBatch));
    }
    base_table_ = std::make_unique<ChainTable>(*table_);
    for (std::size_t j = 0; j < kWarmupBatches; ++j) step(0, j, 0, nullptr, nullptr);
    restore(0);
  }

  void teardown() override {
    table_.reset();
    base_table_.reset();
    machine_.reset();
  }

  std::size_t segments() const override { return 1; }
  std::size_t segment_steps() const override { return kBatches; }

  void restore(std::size_t /*segment*/) override { *table_ = *base_table_; }

  std::uint64_t step(std::size_t /*segment*/, std::size_t j,
                     std::uint64_t trace_id, SpanLog* spans,
                     double* latency_ms) override {
    const auto t0 = Clock::now();
    const ScopedSpan batch(spans, "bench.batch", trace_id);
    {
      const ScopedSpan s(spans, "hashing.multi_hash_chain_insert", trace_id,
                         batch.id());
      folvec::hashing::multi_hash_chain_insert(*machine_, *table_, batches_[j]);
    }
    if (latency_ms != nullptr) *latency_ms = seconds_between(t0, Clock::now()) * 1e3;
    issued_ += kBatch;
    return kBatch;
  }

  Counts counts() override {
    return {{"chains", static_cast<double>(table_->table_size())},
            {"entered", static_cast<double>(table_->entered())}};
  }

  Verdict verify() override {
    // Reference: the base corpus and one whole episode pushed one symbol at
    // a time (Figure 4a). FOL sets push colliding keys in set order, not
    // lane order, so chains are compared as multisets.
    ChainTable ref(kChains, kCapacity);
    for (const Word s : base_) ref.insert_scalar(s);
    for (const WordVec& b : batches_) {
      for (const Word s : b) ref.insert_scalar(s);
    }
    std::uint64_t wrong = 0;
    for (std::size_t h = 0; h < kChains; ++h) {
      WordVec got = table_->chain(h);
      WordVec want = ref.chain(h);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      WordVec differ;
      std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                    want.end(), std::back_inserter(differ));
      wrong += differ.size();
    }
    return Verdict{issued_, wrong};
  }

  void layer_values(const PhaseResult& phase, const SpanLog& spans,
                    Values& out) const override {
    const double insert_s =
        spans.total_seconds("hashing.multi_hash_chain_insert");
    const Counts& end = phase.prefix.at_end;
    out["hashing.chain_insert_s"] = insert_s;
    out["hashing.host_s"] = insert_s - op_wall_seconds(phase);
    out["hashing.slots_per_key"] = end.at("chains") / end.at("entered");
  }

  std::vector<vm::VectorMachine*> machines() override { return {machine_.get()}; }

  std::map<std::string, std::string> describe() const override {
    return {{"vocab", std::to_string(kVocab)},
            {"chains", std::to_string(kChains)},
            {"base_symbols", std::to_string(kBaseSymbols)},
            {"batch", std::to_string(kBatch)},
            {"segment", std::to_string(kBatches) + " batches"},
            {"zipf_s", "1.1"},
            {"machines_covered", "the table's machine"}};
  }

 private:
  WordVec base_;
  std::vector<WordVec> batches_;

  std::unique_ptr<vm::VectorMachine> machine_;
  std::unique_ptr<ChainTable> table_;
  std::unique_ptr<ChainTable> base_table_;
  std::uint64_t issued_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_symbol_intern(std::uint64_t seed) {
  return std::make_unique<SymbolIntern>(seed);
}

}  // namespace perfbench

// bulk_load: long-vector upserts and lookups on one VectorHashMap.
//
// Setup loads a base index of 2^19 random keys (below 2^40). The timed
// phase replays episodes of kRounds rounds; a round is one 2^16-key
// upsert_batch (a quarter overwrites stored keys, the rest are new keys,
// one in eight new-key lanes repeating another lane's key) followed by one
// 2^16-key lookup_batch of stored keys. Every episode starts from a copy of
// the base index, so the table stays near 2^21 slots (larger than L2,
// inside L3) however long the run is, and every episode does the same work:
// one growth rehash, at round 5.
#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "harness.h"
#include "hashing/hash_map.h"
#include "support/prng.h"

namespace perfbench {
namespace {

using folvec::Xoshiro256;
using folvec::hashing::VectorHashMap;
namespace vm = folvec::vm;

constexpr std::size_t kBaseKeys = std::size_t{1} << 19;
constexpr std::size_t kBatch = std::size_t{1} << 16;
constexpr std::size_t kRounds = 16;
constexpr std::size_t kOverwriteLanes = kBatch / 4;
constexpr std::size_t kRepeatLanes = (kBatch - kOverwriteLanes) / 8;
constexpr std::size_t kNewKeys = kBatch - kOverwriteLanes - kRepeatLanes;
constexpr std::size_t kWarmupRounds = 2;
constexpr Word kMissing = -1;

struct Round {
  WordVec upsert_keys, upsert_values, lookup_keys, expected;
};

class BulkLoad final : public Workload {
 public:
  explicit BulkLoad(std::uint64_t seed) : seed_(seed) { generate(); }

  void setup() override {
    mismatches_ = 0;
    issued_ = 0;
    machine_ = std::make_unique<vm::VectorMachine>(deployment_machine_config());
    map_ = std::make_unique<VectorHashMap>();
    for (std::size_t off = 0; off < kBaseKeys; off += kBatch) {
      map_->upsert_batch(*machine_, std::span(base_keys_).subspan(off, kBatch),
                         std::span(base_values_).subspan(off, kBatch));
    }
    base_ = std::make_unique<VectorHashMap>(*map_);
    for (std::size_t j = 0; j < kWarmupRounds; ++j) step(0, j, 0, nullptr, nullptr);
    restore(0);
  }

  void teardown() override {
    map_.reset();
    base_.reset();
    machine_.reset();
  }

  std::size_t segments() const override { return 1; }
  std::size_t segment_steps() const override { return kRounds; }

  void restore(std::size_t /*segment*/) override { *map_ = *base_; }

  std::uint64_t step(std::size_t /*segment*/, std::size_t j,
                     std::uint64_t trace_id, SpanLog* spans,
                     double* latency_ms) override {
    const Round& rd = rounds_[j];
    const auto t0 = Clock::now();
    const ScopedSpan round(spans, "bench.round", trace_id);
    WordVec got;
    {
      const ScopedSpan s(spans, "hashing.upsert_batch", trace_id, round.id());
      map_->upsert_batch(*machine_, rd.upsert_keys, rd.upsert_values);
    }
    {
      const ScopedSpan s(spans, "hashing.lookup_batch", trace_id, round.id());
      got = map_->lookup_batch(*machine_, rd.lookup_keys, kMissing);
    }
    if (latency_ms != nullptr) *latency_ms = seconds_between(t0, Clock::now()) * 1e3;
    if (got != rd.expected) {
      for (std::size_t i = 0; i < kBatch; ++i) mismatches_ += got[i] != rd.expected[i];
    }
    issued_ += 2 * kBatch;
    return 2 * kBatch;
  }

  Counts counts() override {
    return {{"rehashes", static_cast<double>(map_->rehash_count())},
            {"capacity", static_cast<double>(map_->capacity())},
            {"size", static_cast<double>(map_->size())}};
  }

  Verdict verify() override {
    // Lookup answers were compared with the reference as they arrived; the
    // final table must equal base plus one whole episode, replayed
    // sequentially.
    std::unordered_map<Word, Word> ref;
    ref.reserve(kBaseKeys + kRounds * kNewKeys);
    for (std::size_t i = 0; i < kBaseKeys; ++i) ref[base_keys_[i]] = base_values_[i];
    for (const Round& rd : rounds_) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        ref[rd.upsert_keys[i]] = rd.upsert_values[i];
      }
    }
    WordVec keys;
    WordVec want;
    keys.reserve(ref.size());
    want.reserve(ref.size());
    for (const auto& [k, v] : ref) {
      keys.push_back(k);
      want.push_back(v);
    }
    vm::MachineConfig serial = deployment_machine_config();
    serial.backend = vm::BackendKind::kSerial;
    vm::VectorMachine checker(serial);
    const WordVec got = map_->lookup_batch(checker, keys, kMissing);
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) wrong += got[i] != want[i];
    const std::size_t extra =
        map_->size() > ref.size() ? map_->size() - ref.size() : 0;
    return Verdict{issued_, mismatches_ + wrong + extra};
  }

  void layer_values(const PhaseResult& phase, const SpanLog& spans,
                    Values& out) const override {
    const double upsert_s = spans.total_seconds("hashing.upsert_batch");
    const double lookup_s = spans.total_seconds("hashing.lookup_batch");
    const Counts& end = phase.prefix.at_end;
    out["hashing.upsert_s"] = upsert_s;
    out["hashing.lookup_s"] = lookup_s;
    out["hashing.host_s"] = upsert_s + lookup_s - op_wall_seconds(phase);
    out["hashing.rehashes"] = phase.prefix.counted.at("rehashes");
    out["hashing.slots_per_key"] = end.at("capacity") / end.at("size");
  }

  std::vector<vm::VectorMachine*> machines() override { return {machine_.get()}; }

  std::map<std::string, std::string> describe() const override {
    return {{"base_keys", std::to_string(kBaseKeys)},
            {"batch", std::to_string(kBatch)},
            {"segment", std::to_string(kRounds) + " rounds"},
            {"machines_covered", "the map's machine"}};
  }

 private:
  /// Key i is scramble40(i); the reference value of every key is tracked
  /// by its index, so building the expected answers needs no hash table.
  void generate() {
    Xoshiro256 rng(seed_);
    const std::uint64_t salt = rng.next();
    const auto value = [&] {
      return static_cast<Word>(rng.below(std::uint64_t{1} << 40));
    };
    WordVec current(kBaseKeys + kRounds * kNewKeys);
    base_keys_.resize(kBaseKeys);
    base_values_.resize(kBaseKeys);
    for (std::size_t i = 0; i < kBaseKeys; ++i) {
      base_keys_[i] = scramble40(i, salt);
      base_values_[i] = current[i] = value();
    }
    std::size_t stored = kBaseKeys;
    rounds_.resize(kRounds);
    std::vector<std::size_t> ids;
    for (Round& rd : rounds_) {
      ids.clear();
      for (std::size_t i = 0; i < kOverwriteLanes; ++i) {
        ids.push_back(rng.below(stored));
      }
      for (std::size_t i = 0; i < kNewKeys; ++i) ids.push_back(stored + i);
      for (std::size_t i = 0; i < kRepeatLanes; ++i) {
        ids.push_back(stored + rng.below(kNewKeys));
      }
      for (std::size_t i = ids.size() - 1; i > 0; --i) {
        std::swap(ids[i], ids[rng.below(i + 1)]);
      }
      stored += kNewKeys;
      for (const std::size_t id : ids) {
        rd.upsert_keys.push_back(scramble40(id, salt));
        rd.upsert_values.push_back(current[id] = value());
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::size_t id = rng.below(stored);
        rd.lookup_keys.push_back(scramble40(id, salt));
        rd.expected.push_back(current[id]);
      }
    }
  }

  std::uint64_t seed_;
  WordVec base_keys_, base_values_;
  std::vector<Round> rounds_;

  std::unique_ptr<vm::VectorMachine> machine_;
  std::unique_ptr<VectorHashMap> map_;
  std::unique_ptr<VectorHashMap> base_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_bulk_load(std::uint64_t seed) {
  return std::make_unique<BulkLoad>(seed);
}

}  // namespace perfbench

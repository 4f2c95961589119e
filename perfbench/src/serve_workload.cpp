// serve_uniform / serve_zipf: a BatchServer in pump mode with one
// closed-loop client that keeps W = 128 requests outstanding.
//
// Each window submits 128 requests, then calls pump_all. Keys are dense
// integers 0..4095, uniform or Zipf(1.1) with key 0 the hottest. The mix is
// 30% upsert, 60% lookup, 10% erase; half of the lookups target a range no
// request ever writes, so the Bloom front-end can answer them alone.
//
// A segment is kWindows windows of its own stream, run on a freshly built
// server preloaded with its own random 75% of the keys (the mix's
// steady-state occupancy); an episode is kSegments segments. zipf's cost
// per window climbs as tombstones pile up on the hot key's probe chain, so
// replaying fixed segments keeps a run's work independent of its length,
// and averaging several segments keeps it close across seeds. Setup builds
// the server for segment 0 and runs a warm-up slice of it.
#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "harness.h"
#include "serve/server.h"
#include "support/prng.h"

namespace perfbench {
namespace {

using folvec::Xoshiro256;
using folvec::serve::BatchServer;
using folvec::serve::OpKind;
using folvec::serve::ResponseStatus;
namespace vm = folvec::vm;

constexpr std::size_t kKeys = 4096;
constexpr std::size_t kWindow = 128;
constexpr std::size_t kWindows = 128;
constexpr std::size_t kSegments = 8;
constexpr std::size_t kRequests = kWindows * kWindow;
constexpr std::size_t kWarmupWindows = 64;
constexpr auto kMissOffset = static_cast<Word>(2 * kKeys);
constexpr Word kAbsent = folvec::serve::kAbsent;
/// Answer of a request that got no response, or a non-ok status for an
/// upsert or erase. Distinct from every value a lookup can return.
constexpr Word kNoAnswer = std::numeric_limits<Word>::min() + 1;

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, bool zipf) : zipf_(zipf) {
    Xoshiro256 rng(seed);
    const ZipfSampler sampler(kKeys, 1.1);
    segments_.resize(kSegments);
    for (Segment& g : segments_) {
      WordVec keys(kKeys);
      for (std::size_t i = 0; i < kKeys; ++i) keys[i] = static_cast<Word>(i);
      for (std::size_t i = kKeys - 1; i > 0; --i) {
        std::swap(keys[i], keys[rng.below(i + 1)]);
      }
      g.preload_keys.assign(keys.begin(), keys.begin() + 3 * kKeys / 4);
      for (std::size_t i = 0; i < g.preload_keys.size(); ++i) {
        g.preload_values.push_back(static_cast<Word>(rng.below(1u << 20)));
      }
      g.ops.resize(kRequests);
      g.keys.resize(kRequests);
      g.values.assign(kRequests, 0);
      for (std::size_t i = 0; i < kRequests; ++i) {
        const Word key = zipf ? static_cast<Word>(sampler.draw(rng))
                              : static_cast<Word>(rng.below(kKeys));
        const double roll = rng.unit();
        if (roll < 0.30) {
          g.ops[i] = OpKind::kUpsert;
          g.keys[i] = key;
          g.values[i] = static_cast<Word>(rng.below(1u << 20));
        } else if (roll < 0.90) {
          g.ops[i] = OpKind::kLookup;
          g.keys[i] = rng.unit() < 0.5 ? key : key + kMissOffset;
        } else {
          g.ops[i] = OpKind::kErase;
          g.keys[i] = key;
        }
      }
      // Sequential reference: the answer every request must get.
      std::unordered_map<Word, Word> ref = g.preloaded();
      g.expected.assign(kRequests, 0);
      for (std::size_t i = 0; i < kRequests; ++i) {
        if (g.ops[i] == OpKind::kUpsert) {
          ref[g.keys[i]] = g.values[i];
        } else if (g.ops[i] == OpKind::kErase) {
          ref.erase(g.keys[i]);
        } else {
          const auto it = ref.find(g.keys[i]);
          g.expected[i] = it == ref.end() ? kAbsent : it->second;
        }
      }
    }
  }

  void setup() override {
    issued_ = 0;
    mismatches_ = 0;
    restore(0);
    for (std::size_t w = 0; w < kWarmupWindows; ++w) {
      step(0, w, 0, nullptr, nullptr);
    }
    restore(0);
  }

  void teardown() override { server_.reset(); }

  std::size_t segments() const override { return kSegments; }
  std::size_t segment_steps() const override { return kWindows; }

  void restore(std::size_t segment) override {
    server_.reset();
    current_ = segment;
    folvec::serve::BatchServerConfig cfg;
    cfg.map.machine = deployment_machine_config();
    server_ = std::make_unique<BatchServer>(cfg);
    const Segment& g = segments_[segment];
    server_->map().upsert_batch(g.preload_keys, g.preload_values);
  }

  /// One window: kWindow submits, pump_all, then the answers are compared
  /// with the reference. A request's latency runs from its submit to the
  /// return of the pump_all that answered it; the window's latency is the
  /// mean over its requests.
  std::uint64_t step(std::size_t segment, std::size_t j,
                     std::uint64_t trace_id, SpanLog* spans,
                     double* latency_ms) override {
    const Segment& g = segments_[segment];
    const ScopedSpan win(spans, "bench.window", trace_id);
    std::array<Clock::time_point, kWindow> submitted;
    const std::size_t first = j * kWindow;
    std::uint64_t first_id = 0;
    {
      const ScopedSpan s(spans, "serve.submit", trace_id, win.id());
      for (std::size_t k = 0; k < kWindow; ++k) {
        const std::size_t p = first + k;
        submitted[k] = Clock::now();
        const std::uint64_t id = server_->submit(g.ops[p], g.keys[p], g.values[p]);
        if (k == 0) first_id = id;
      }
    }
    {
      const ScopedSpan s(spans, "serve.pump_all", trace_id, win.id());
      server_->pump_all();
    }
    const auto answered = Clock::now();
    std::vector<folvec::serve::Response> responses;
    {
      const ScopedSpan s(spans, "serve.take_responses", trace_id, win.id());
      responses = server_->take_responses();
    }
    std::array<Word, kWindow> got;
    got.fill(kNoAnswer);
    for (const folvec::serve::Response& resp : responses) {
      const std::uint64_t k = resp.id - first_id;
      if (resp.id < first_id || k >= kWindow) continue;
      if (resp.op == OpKind::kLookup) {
        got[k] = resp.status == ResponseStatus::kOk ? resp.value : kAbsent;
      } else if (resp.status == ResponseStatus::kOk) {
        got[k] = 0;
      }
    }
    for (std::size_t k = 0; k < kWindow; ++k) {
      mismatches_ += got[k] != g.expected[first + k];
    }
    if (latency_ms != nullptr) {
      double sum = 0;
      for (const auto& t : submitted) sum += seconds_between(t, answered);
      *latency_ms = sum / kWindow * 1e3;
    }
    issued_ += kWindow;
    return kWindow;
  }

  Counts counts() override {
    Counts c;
    folvec::serve::ShardedMap& map = server_->map();
    c["bloom_skips"] = static_cast<double>(map.bloom_skips());
    c["bloom_rebuilds"] = static_cast<double>(map.bloom_rebuilds());
    for (std::size_t s = 0; s < map.shard_count(); ++s) {
      c["rehashes"] += static_cast<double>(map.shard_map(s).rehash_count());
      c["capacity"] += static_cast<double>(map.shard_map(s).capacity());
      c["size"] += static_cast<double>(map.shard_map(s).size());
    }
    return c;
  }

  Verdict verify() override {
    // Answers were compared with the reference as they arrived; the final
    // state must equal the last segment's preload plus its whole stream.
    const Segment& g = segments_[current_];
    std::unordered_map<Word, Word> ref = g.preloaded();
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (g.ops[i] == OpKind::kUpsert) ref[g.keys[i]] = g.values[i];
      if (g.ops[i] == OpKind::kErase) ref.erase(g.keys[i]);
    }
    std::uint64_t wrong = 0;
    // Every key of both ranges, in slices below the parallel grain.
    for (const Word base : {Word{0}, kMissOffset}) {
      for (Word lo = 0; lo < static_cast<Word>(kKeys); lo += 1024) {
        WordVec sweep(1024);
        for (std::size_t k = 0; k < sweep.size(); ++k) {
          sweep[k] = base + lo + static_cast<Word>(k);
        }
        const WordVec got = server_->map().lookup_batch(sweep, kAbsent);
        for (std::size_t k = 0; k < sweep.size(); ++k) {
          const auto it = ref.find(sweep[k]);
          wrong += got[k] != (it == ref.end() ? kAbsent : it->second);
        }
      }
    }
    const std::size_t size = server_->map().size();
    wrong += size > ref.size() ? size - ref.size() : ref.size() - size;
    return Verdict{issued_, mismatches_ + wrong};
  }

  void layer_values(const PhaseResult& phase, const SpanLog& spans,
                    Values& out) const override {
    const double pump_s = spans.total_seconds("serve.pump_all");
    const Counts& counted = phase.prefix.counted;
    const Counts& end = phase.prefix.at_end;
    const auto& reg = phase.prefix.registry.counters;
    const auto counter = [&](const char* name) {
      const auto it = reg.find(name);
      return it == reg.end() ? 0.0 : static_cast<double>(it->second);
    };
    double lookups = 0;
    double erases = 0;
    for (const Segment& g : segments_) {
      lookups += static_cast<double>(
          std::count(g.ops.begin(), g.ops.end(), OpKind::kLookup));
      erases += static_cast<double>(
          std::count(g.ops.begin(), g.ops.end(), OpKind::kErase));
    }
    out["serve.submit_s"] = spans.total_seconds("serve.submit");
    out["serve.pump_s"] = pump_s;
    out["serve.host_us_per_op"] = (pump_s - op_wall_seconds(phase)) * 1e6 /
                                  static_cast<double>(phase.ops);
    out["serve.bloom.skip_frac"] = counted.at("bloom_skips") / (lookups + erases);
    out["serve.bloom.rebuilds_per_erase"] = counted.at("bloom_rebuilds") / erases;
    out["serve.shard_lanes_per_request"] =
        (counter("serve.shard.upserts") + counter("serve.shard.lookups") +
         counter("serve.shard.erases")) /
        static_cast<double>(phase.prefix.ops);
    out["hashing.rehashes"] = counted.at("rehashes");
    out["hashing.slots_per_key"] = end.at("capacity") / end.at("size");
  }

  std::vector<vm::VectorMachine*> machines() override {
    std::vector<vm::VectorMachine*> out;
    for (std::size_t s = 0; s < server_->map().shard_count(); ++s) {
      out.push_back(&server_->map().shard_machine(s));
    }
    return out;
  }

  std::map<std::string, std::string> describe() const override {
    const folvec::serve::BatchServerConfig cfg;
    return {{"keys", std::to_string(kKeys)},
            {"window", std::to_string(kWindow)},
            {"segment", std::to_string(kWindows) + " windows"},
            {"segments_per_episode", std::to_string(kSegments)},
            {"distribution", zipf_ ? "zipf(1.1)" : "uniform"},
            {"shards", std::to_string(cfg.map.shards)},
            {"bloom", cfg.map.bloom ? "on" : "off"},
            {"max_batch", std::to_string(cfg.coalesce.max_batch)},
            {"machines_covered",
             "the shard machines (the ShardedMap router machine is private)"}};
  }

 private:
  struct Segment {
    WordVec preload_keys, preload_values;
    std::vector<OpKind> ops;
    WordVec keys, values;
    WordVec expected;  ///< per request: lookup answer, or 0

    std::unordered_map<Word, Word> preloaded() const {
      std::unordered_map<Word, Word> ref;
      for (std::size_t i = 0; i < preload_keys.size(); ++i) {
        ref[preload_keys[i]] = preload_values[i];
      }
      return ref;
    }
  };

  bool zipf_;
  std::vector<Segment> segments_;

  std::unique_ptr<BatchServer> server_;
  std::size_t current_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve(std::uint64_t seed, bool zipf) {
  return std::make_unique<ServeWorkload>(seed, zipf);
}

}  // namespace perfbench

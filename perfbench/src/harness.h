// Shared machinery of the perfbench binary: the workload interface, the
// benchmark-side span log, cost-counter snapshots and the timed phase.
//
// A workload owns its pre-generated inputs and the program objects built
// from them. main.cpp times setup() from outside, runs the timed phase
// through run_phase(), then asks verify() for the answers that disagreed
// with the sequential reference. Nothing here reaches into the library's
// internals: every number comes from public accessors
// (VectorMachine::cost(), BufferPool::stats(), the telemetry registry) or
// from clocks read around public calls.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "vm/cost_model.h"
#include "vm/machine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using folvec::vm::Word;
using folvec::vm::WordVec;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deployment configuration shared by every workload's machines: the
/// parallel+simd backend on one worker. A second worker made bulk_load and
/// symbol_intern slower (about 0.5x and 0.7x) and several times noisier on
/// a shared 4-core host, where it waits at every instruction's barrier for
/// a contended core. With one worker no instruction is split and the thread
/// pool never starts, so the benchmark does not measure either.
inline constexpr std::size_t kBackendThreads = 1;
folvec::vm::MachineConfig deployment_machine_config();

// ---- benchmark-side spans ---------------------------------------------------

/// In-memory span log of one traced run. A span covers one call (or one
/// tight loop of calls) into a layer's public function; `trace_id` is shared
/// by every span of one window or batch. Written as Chrome trace JSON.
class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::int32_t open(const char* name, std::uint64_t trace_id,
                    std::int32_t parent = kNoParent);
  void close(std::int32_t span);

  /// Summed duration of every span called `name`.
  double total_seconds(const char* name) const;
  /// Summed duration of spans with a parent. Root spans ("bench.*") cover
  /// one window or round of the client loop; their children are the calls
  /// into the program.
  double child_seconds() const;

  std::size_t size() const { return spans_.size(); }
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t trace_id;
  };
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span that records nothing when `log` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t trace_id,
             std::int32_t parent = SpanLog::kNoParent)
      : log_(log), id_(log ? log->open(name, trace_id, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

// ---- counter snapshots ------------------------------------------------------

/// Instruction/element/wall totals over a set of machines, plus their
/// buffer-pool counters. Subtracting two snapshots gives one interval.
struct CostSnap {
  std::array<std::uint64_t, folvec::vm::kOpClassCount> instructions{};
  std::array<std::uint64_t, folvec::vm::kOpClassCount> elements{};
  std::array<double, folvec::vm::kOpClassCount> wall{};
  double modeled_us = 0;
  std::uint64_t buffer_acquires = 0;
  std::uint64_t buffer_hits = 0;

  static CostSnap of(const std::vector<folvec::vm::VectorMachine*>& machines);
  CostSnap operator-(const CostSnap& before) const;
  CostSnap& operator+=(const CostSnap& other);
};

/// The installed registry's snapshot, or an empty one when none is.
folvec::telemetry::MetricsSnapshot registry_snapshot();

/// Workload-specific counters (rehashes, Bloom skips, ...) and gauges
/// (capacity, size, ...) read through public accessors.
using Counts = std::map<std::string, double>;

/// Counters captured over the count window: the first episode of the timed
/// phase, which is the same work on every run with the same seed, so
/// everything derived from it repeats exactly. Restores between segments
/// are excluded.
struct Prefix {
  std::uint64_t ops = 0;
  CostSnap cost;
  folvec::telemetry::MetricsSnapshot registry;
  Counts counted;  ///< summed per-segment change of every Counts entry
  Counts at_end;   ///< Counts as the window ends
};

/// Outcome of one timed phase.
struct PhaseResult {
  std::uint64_t ops = 0;
  /// Timed wall: the segments themselves, without the restores between.
  double wall_s = 0;
  /// Latency samples by position in the episode (segment * steps + step),
  /// one per repetition of that step.
  std::vector<std::vector<double>> step_latency_ms;
  std::uint64_t steps = 0;
  std::uint64_t segments = 0;
  Prefix prefix;
  CostSnap phase_cost;  ///< covered machines over every segment
  folvec::telemetry::MetricsSnapshot phase_registry;  ///< every segment
};

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Per-layer metric values by name (units live in the metric table).
using Values = std::map<std::string, double>;

// ---- the workload interface -------------------------------------------------

/// A workload is a fixed episode of segments; a segment is a fixed list of
/// steps run from a known starting state. The timed phase replays the
/// episode until the run's time is up, restoring the starting state before
/// each segment, which keeps the program's state bounded and makes a
/// run's work independent of its length.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the program objects from the generated inputs: construction,
  /// base load or preload, and a warm-up slice; leaves the program at the
  /// start of segment 0. Timed as setup_s.
  virtual void setup() = 0;
  /// Destroys the program objects (machines flush telemetry here).
  virtual void teardown() = 0;
  virtual std::size_t segments() const = 0;
  virtual std::size_t segment_steps() const = 0;
  /// Brings the program to the start of `segment` (outside the timed wall).
  virtual void restore(std::size_t segment) = 0;
  /// Runs step `j` of `segment`, checking answers as they arrive; returns
  /// the operations it issued. Stores the step's latency in `*latency_ms`
  /// when it is non-null. `spans` is null in untraced runs.
  virtual std::uint64_t step(std::size_t segment, std::size_t j,
                             std::uint64_t trace_id, SpanLog* spans,
                             double* latency_ms) = 0;
  virtual Counts counts() = 0;
  /// Answers that disagreed so far, plus the final state checked against a
  /// sequential replay of the last segment.
  virtual Verdict verify() = 0;
  /// Workload-specific per-layer values (hashing.*, serve.*).
  virtual void layer_values(const PhaseResult& phase, const SpanLog& spans,
                            Values& out) const = 0;
  /// Machines whose CostAccumulators the cost metrics cover.
  virtual std::vector<folvec::vm::VectorMachine*> machines() = 0;
  /// Configuration facts for the provenance line.
  virtual std::map<std::string, std::string> describe() const = 0;
};

/// The timed phase: segments in episode order until one whole episode has
/// run and `seconds` of timed wall have passed.
PhaseResult run_phase(Workload& w, double seconds, SpanLog* spans);

/// Host seconds the covered machines spent inside instructions over the
/// whole phase (CostAccumulator wall).
double op_wall_seconds(const PhaseResult& phase);

std::unique_ptr<Workload> make_bulk_load(std::uint64_t seed);
std::unique_ptr<Workload> make_symbol_intern(std::uint64_t seed);
std::unique_ptr<Workload> make_serve(std::uint64_t seed, bool zipf);

// ---- input helpers ----------------------------------------------------------

/// A bijection on [0, 2^40): distinct counters give distinct keys, spread
/// over the whole range.
inline Word scramble40(std::uint64_t x, std::uint64_t salt) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 40) - 1;
  x = (x ^ salt) & kMask;
  x = (x * 0x9e3779b97f4a7c15ULL) & kMask;
  x ^= x >> 21;
  x = (x * 0xbf58476d1ce4e5b9ULL) & kMask;
  x ^= x >> 17;
  return static_cast<Word>(x);
}

/// Zipf(s) ranks over [0, n) by inverse-CDF lookup; rank 0 is the hottest.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  template <typename Rng>
  std::size_t draw(Rng& rng) const {
    return index_of(rng.unit());
  }

 private:
  std::size_t index_of(double u) const;
  std::vector<double> cdf_;
};

/// Nearest-rank quantile `q` in [0, 1] of `xs` (0 for empty input).
double quantile(std::vector<double> xs, double q);

}  // namespace perfbench

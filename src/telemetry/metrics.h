// Metrics registry: counters, gauges, and log2-bucket histograms.
//
// The registry is the numeric half of the telemetry layer (spans.h is the
// timeline half). Everything the repo's claims rest on — FOL round counts,
// |S1..SM| set-size distributions, hash probe histograms — is recorded
// here by the instrumented code and read back as a MetricsSnapshot by
// tests and the bench reporter.
//
// Recording follows the SpanTracer pattern (spans.h): a process-wide
// installed registry, borrowed not owned, nullptr by default. Every record helper is
// one relaxed atomic pointer test when nothing is installed, so shipping
// the instrumentation costs nothing on un-instrumented runs (micro_vm's
// overhead guard pins that property).
//
// Determinism contract: counters, gauges, and histograms carry *modeled*
// quantities and must be bit-identical for the same program on either
// execution backend — EXCEPT the "backend." and "fault." namespaces, which
// describe the host-execution machinery itself. Measured host time always
// goes into the separate `timings` section, and non-numeric facts (backend
// names, SIMD levels) into `labels`. The MetricsSnapshot::deterministic()
// view drops timings, labels, and the host namespaces; tests/backend_diff_test.cpp asserts it is identical
// between the scalar table and the widest SIMD table.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace folvec::telemetry {

/// Log2-bucket histogram: bucket 0 holds the value 0, bucket k >= 1 holds
/// values in [2^(k-1), 2^k). 64 value buckets cover the whole uint64 range.
struct HistogramData {
  std::array<std::uint64_t, 65> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  /// Records `weight` occurrences of `value` (one bucket bump of `weight`).
  /// `count` and `sum` saturate at UINT64_MAX instead of wrapping, so a
  /// huge weight can pin them to the ceiling but never corrupt them.
  void record(std::uint64_t value, std::uint64_t weight = 1);
  void merge(const HistogramData& other);

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  bool operator==(const HistogramData&) const = default;
};

/// Bucket index of `value` (== bit width of the value).
std::size_t histogram_bucket(std::uint64_t value);

/// Inclusive [lo, hi] value range of bucket `b`.
std::pair<std::uint64_t, std::uint64_t> histogram_bucket_range(std::size_t b);

/// Saturating uint64 arithmetic used by the histogram/sketch accumulators.
std::uint64_t saturating_add_u64(std::uint64_t a, std::uint64_t b);
std::uint64_t saturating_mul_u64(std::uint64_t a, std::uint64_t b);

/// Fixed-memory quantile sketch (HDR-histogram style): each power of two
/// is split into kSubBuckets equal-width sub-buckets, so any quantile
/// comes back as a bucket-midpoint representative whose relative error is
/// bounded by half a sub-bucket width — at 16 sub-buckets, <= 1/32
/// (~3.1%) for values past the exact range. Values below 2 * kSubBuckets
/// land in single-value buckets and are exact.
///
/// The sketch is deterministic (pure function of the recorded multiset,
/// independent of recording order) and mergeable (bucket-wise addition),
/// which is what the serving-layer p50/p99 machinery and the calibration
/// profiler need; the coarser HistogramData stays the snapshot/diff
/// workhorse. ~8 KiB per instance, no allocation.
class PercentileSketch {
 public:
  static constexpr std::size_t kSubBucketBits = 4;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  /// 2*kSubBuckets exact buckets (values 0..2*kSubBuckets-1, bit widths up
  /// to kSubBucketBits+1) + kSubBuckets per remaining power of two.
  static constexpr std::size_t kBuckets =
      2 * kSubBuckets + (64 - (kSubBucketBits + 1)) * kSubBuckets;

  /// Flat bucket index of `value`; strictly monotone in `value`.
  static std::size_t bucket_index(std::uint64_t value);
  /// Inclusive [lo, hi] value range of bucket `b`.
  static std::pair<std::uint64_t, std::uint64_t> bucket_range(std::size_t b);

  /// Records `weight` occurrences of `value` (saturating accumulators).
  void record(std::uint64_t value, std::uint64_t weight = 1);
  /// Bucket-wise accumulation of another sketch.
  void merge(const PercentileSketch& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile `q` in [0, 1]: the midpoint representative of the
  /// bucket holding the ceil(q * count)-th smallest recorded value,
  /// clamped into [min, max]. Returns 0 on an empty sketch.
  std::uint64_t quantile(double q) const;
  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p90() const { return quantile(0.90); }
  std::uint64_t p99() const { return quantile(0.99); }

  bool operator==(const PercentileSketch&) const = default;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// An immutable copy of a registry's state. Also the registry's internal
/// storage (guarded by its mutex).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;
  /// Measured host seconds; inherently non-deterministic.
  std::map<std::string, double> timings;
  /// Non-numeric facts (backend names, SIMD levels, build flavor).
  std::map<std::string, std::string> labels;

  /// The backend-independent view: counters/gauges/histograms minus the
  /// "backend." and "fault." namespaces; no timings, no labels.
  /// Identical across execution backends for the same program.
  MetricsSnapshot deterministic() const;

  /// Per-entry difference `after - before`, keyed on the union of both
  /// snapshots' counters, histograms, and timings:
  ///  * present in both: counters and histogram accumulators subtract,
  ///    clamping at 0 instead of wrapping (a registry reset between the
  ///    snapshots can legitimately make `before` larger); timings subtract
  ///    without clamping (negative deltas flag a reset).
  ///  * only in `after`: copied through (delta from an implicit 0).
  ///  * only in `before`: surfaced explicitly as a zero-valued entry
  ///    (0 counter / empty histogram / 0.0 timing) so consumers can see
  ///    the key existed rather than silently losing it.
  /// Gauges and labels are instantaneous facts, not accumulations: the
  /// result carries `after`'s gauges and labels verbatim, and gauges or
  /// labels present only in `before` are intentionally dropped.
  static MetricsSnapshot diff(const MetricsSnapshot& after,
                              const MetricsSnapshot& before);

  /// Entry-wise accumulation: counters/histograms/timings add, gauges take
  /// the maximum (gauges here are high-water marks), labels overwrite.
  void merge(const MetricsSnapshot& other);

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           timings.empty() && labels.empty();
  }

  /// Multi-line human-readable rendering, sorted by name.
  std::string to_text() const;

  /// JSON object with "counters"/"gauges"/"histograms"/"timings"/"labels"
  /// members (see docs/observability.md for the exact schema).
  std::string to_json(int indent = 2) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Thread-safe named-metric store. Recording is mutex-guarded: the
/// instrumented paths are per-round / per-instruction-class, not per-lane,
/// so contention is negligible next to the work being measured.
class MetricsRegistry {
 public:
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Sets a gauge to `value` unconditionally.
  void gauge_set(std::string_view name, std::int64_t value);
  /// Raises a gauge to `value` if larger (high-water mark).
  void gauge_max(std::string_view name, std::int64_t value);
  void observe(std::string_view name, std::uint64_t value,
               std::uint64_t weight = 1);
  void time_add(std::string_view name, double seconds);
  void label(std::string_view name, std::string value);

  MetricsSnapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  MetricsSnapshot data_;
};

/// The installed registry, or nullptr. Borrowed, never owned: the installer
/// must keep it alive until uninstall (install_metrics(nullptr)).
MetricsRegistry* metrics();
void install_metrics(MetricsRegistry* registry);

// ---- zero-cost-when-off recording helpers ----------------------------------

inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (MetricsRegistry* r = metrics()) r->add(name, delta);
}
inline void gauge_set(std::string_view name, std::int64_t value) {
  if (MetricsRegistry* r = metrics()) r->gauge_set(name, value);
}
inline void gauge_max(std::string_view name, std::int64_t value) {
  if (MetricsRegistry* r = metrics()) r->gauge_max(name, value);
}
inline void observe(std::string_view name, std::uint64_t value,
                    std::uint64_t weight = 1) {
  if (MetricsRegistry* r = metrics()) r->observe(name, value, weight);
}
inline void time_add(std::string_view name, double seconds) {
  if (MetricsRegistry* r = metrics()) r->time_add(name, seconds);
}
inline void label(std::string_view name, std::string value) {
  if (MetricsRegistry* r = metrics()) r->label(name, std::move(value));
}

/// RAII install/uninstall of a registry (tests, bench mains).
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry& registry);
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace folvec::telemetry

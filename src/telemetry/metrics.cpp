#include "telemetry/metrics.h"

#include <atomic>
#include <bit>
#include <sstream>

#include "support/json.h"

namespace folvec::telemetry {

namespace {

std::atomic<MetricsRegistry*> g_metrics{nullptr};

/// Namespaces that describe the host-execution machinery (backend
/// identity, the fault-injection harness) rather than the modeled
/// computation; excluded from the deterministic view.
bool is_host_namespace(std::string_view name) {
  return name.rfind("backend.", 0) == 0 || name.rfind("fault.", 0) == 0;
}

}  // namespace

// ---- HistogramData ----------------------------------------------------------

std::size_t histogram_bucket(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value));
}

std::pair<std::uint64_t, std::uint64_t> histogram_bucket_range(std::size_t b) {
  if (b == 0) return {0, 0};
  const std::uint64_t lo = std::uint64_t{1} << (b - 1);
  const std::uint64_t hi =
      b == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
  return {lo, hi};
}

std::uint64_t saturating_add_u64(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? ~std::uint64_t{0} : s;
}

std::uint64_t saturating_mul_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > ~std::uint64_t{0} / b) return ~std::uint64_t{0};
  return a * b;
}

void HistogramData::record(std::uint64_t value, std::uint64_t weight) {
  if (weight == 0) return;
  std::uint64_t& bucket = buckets[histogram_bucket(value)];
  bucket = saturating_add_u64(bucket, weight);
  if (count == 0 || value < min) min = value;
  if (value > max) max = value;
  count = saturating_add_u64(count, weight);
  sum = saturating_add_u64(sum, saturating_mul_u64(value, weight));
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = saturating_add_u64(buckets[i], other.buckets[i]);
  }
  if (count == 0 || other.min < min) min = other.min;
  if (other.max > max) max = other.max;
  count = saturating_add_u64(count, other.count);
  sum = saturating_add_u64(sum, other.sum);
}

// ---- PercentileSketch -------------------------------------------------------

std::size_t PercentileSketch::bucket_index(std::uint64_t value) {
  if (value < 2 * kSubBuckets) return static_cast<std::size_t>(value);
  const std::size_t w = static_cast<std::size_t>(std::bit_width(value));
  // The power-of-two block [2^(w-1), 2^w) splits into kSubBuckets ranges
  // of width 2^(w-1-kSubBucketBits).
  const std::size_t sub = static_cast<std::size_t>(
      (value - (std::uint64_t{1} << (w - 1))) >> (w - 1 - kSubBucketBits));
  return 2 * kSubBuckets + (w - (kSubBucketBits + 2)) * kSubBuckets + sub;
}

std::pair<std::uint64_t, std::uint64_t> PercentileSketch::bucket_range(
    std::size_t b) {
  if (b < 2 * kSubBuckets) return {b, b};
  const std::size_t block = (b - 2 * kSubBuckets) / kSubBuckets;
  const std::size_t sub = (b - 2 * kSubBuckets) % kSubBuckets;
  const std::size_t w = block + kSubBucketBits + 2;
  const std::uint64_t width = std::uint64_t{1} << (w - 1 - kSubBucketBits);
  const std::uint64_t lo = (std::uint64_t{1} << (w - 1)) + sub * width;
  return {lo, lo + (width - 1)};
}

void PercentileSketch::record(std::uint64_t value, std::uint64_t weight) {
  if (weight == 0) return;
  std::uint64_t& b = buckets_[bucket_index(value)];
  b = saturating_add_u64(b, weight);
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ = saturating_add_u64(count_, weight);
  sum_ = saturating_add_u64(sum_, saturating_mul_u64(value, weight));
}

void PercentileSketch::merge(const PercentileSketch& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] = saturating_add_u64(buckets_[i], other.buckets_[i]);
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ = saturating_add_u64(count_, other.count_);
  sum_ = saturating_add_u64(sum_, other.sum_);
}

std::uint64_t PercentileSketch::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based: ceil(q * count), clamped to
  // [1, count] so q=0 is the smallest sample and q=1 the largest.
  const double scaled = q * static_cast<double>(count_);
  std::uint64_t rank = static_cast<std::uint64_t>(scaled);
  if (static_cast<double>(rank) < scaled) ++rank;
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    cum = saturating_add_u64(cum, buckets_[b]);
    if (cum >= rank) {
      const auto [lo, hi] = bucket_range(b);
      std::uint64_t rep = lo + (hi - lo) / 2;
      if (rep < min_) rep = min_;
      if (rep > max_) rep = max_;
      return rep;
    }
  }
  return max_;
}

// ---- MetricsSnapshot --------------------------------------------------------

MetricsSnapshot MetricsSnapshot::deterministic() const {
  MetricsSnapshot out;
  for (const auto& [k, v] : counters) {
    if (!is_host_namespace(k)) out.counters.emplace(k, v);
  }
  for (const auto& [k, v] : gauges) {
    if (!is_host_namespace(k)) out.gauges.emplace(k, v);
  }
  for (const auto& [k, v] : histograms) {
    if (!is_host_namespace(k)) out.histograms.emplace(k, v);
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& after,
                                      const MetricsSnapshot& before) {
  MetricsSnapshot out = after;
  for (auto& [k, v] : out.counters) {
    const auto it = before.counters.find(k);
    if (it != before.counters.end()) {
      v = v >= it->second ? v - it->second : 0;  // clamp across resets
    }
  }
  for (const auto& kv : before.counters) {
    out.counters.emplace(kv.first, 0);  // only-in-before: a zero delta
  }
  for (auto& [k, h] : out.histograms) {
    const auto it = before.histograms.find(k);
    if (it == before.histograms.end()) continue;
    const HistogramData& b = it->second;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] = h.buckets[i] >= b.buckets[i] ? h.buckets[i] - b.buckets[i]
                                                  : 0;
    }
    h.count = h.count >= b.count ? h.count - b.count : 0;
    h.sum = h.sum >= b.sum ? h.sum - b.sum : 0;
    // min/max cannot be un-merged; keep the after-side extremes.
  }
  for (const auto& kv : before.histograms) {
    out.histograms.emplace(kv.first, HistogramData{});
  }
  for (auto& [k, t] : out.timings) {
    const auto it = before.timings.find(k);
    if (it != before.timings.end()) t -= it->second;
  }
  for (const auto& kv : before.timings) {
    out.timings.emplace(kv.first, 0.0);
  }
  // Gauges and labels stay `after`'s verbatim (instantaneous facts — see
  // the header contract); only-in-before gauges/labels are dropped.
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [k, v] : other.counters) counters[k] += v;
  for (const auto& [k, v] : other.gauges) {
    const auto [it, fresh] = gauges.emplace(k, v);
    if (!fresh && v > it->second) it->second = v;
  }
  for (const auto& [k, h] : other.histograms) histograms[k].merge(h);
  for (const auto& [k, t] : other.timings) timings[k] += t;
  for (const auto& [k, s] : other.labels) labels[k] = s;
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& [k, v] : counters) {
    os << "counter   " << k << " = " << v << '\n';
  }
  for (const auto& [k, v] : gauges) {
    os << "gauge     " << k << " = " << v << '\n';
  }
  for (const auto& [k, h] : histograms) {
    os << "histogram " << k << ": count=" << h.count << " sum=" << h.sum
       << " min=" << h.min << " max=" << h.max << '\n';
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      const auto [lo, hi] = histogram_bucket_range(b);
      os << "            [" << lo << ".." << hi << "] " << h.buckets[b]
         << '\n';
    }
  }
  for (const auto& [k, t] : timings) {
    os << "timing    " << k << " = " << t << " s\n";
  }
  for (const auto& [k, s] : labels) {
    os << "label     " << k << " = " << s << '\n';
  }
  return os.str();
}

std::string MetricsSnapshot::to_json(int indent) const {
  JsonObject counters_json;
  for (const auto& [k, v] : counters) counters_json.emplace_back(k, v);
  JsonObject gauges_json;
  for (const auto& [k, v] : gauges) gauges_json.emplace_back(k, v);
  JsonObject hists_json;
  for (const auto& [k, h] : histograms) {
    JsonArray buckets;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      const auto [lo, hi] = histogram_bucket_range(b);
      buckets.push_back(JsonObject{
          {"lo", lo}, {"hi", hi}, {"count", h.buckets[b]}});
    }
    hists_json.emplace_back(
        k, JsonObject{{"count", h.count},
                      {"sum", h.sum},
                      {"min", h.min},
                      {"max", h.max},
                      {"buckets", std::move(buckets)}});
  }
  JsonObject timings_json;
  for (const auto& [k, t] : timings) timings_json.emplace_back(k, t);
  JsonObject labels_json;
  for (const auto& [k, s] : labels) labels_json.emplace_back(k, s);
  const JsonValue doc(JsonObject{{"counters", std::move(counters_json)},
                                 {"gauges", std::move(gauges_json)},
                                 {"histograms", std::move(hists_json)},
                                 {"timings", std::move(timings_json)},
                                 {"labels", std::move(labels_json)}});
  return doc.dump(indent);
}

// ---- MetricsRegistry --------------------------------------------------------

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lk(mu_);
  data_.counters[std::string(name)] += delta;
}

void MetricsRegistry::gauge_set(std::string_view name, std::int64_t value) {
  const std::lock_guard<std::mutex> lk(mu_);
  data_.gauges[std::string(name)] = value;
}

void MetricsRegistry::gauge_max(std::string_view name, std::int64_t value) {
  const std::lock_guard<std::mutex> lk(mu_);
  const auto [it, fresh] = data_.gauges.emplace(std::string(name), value);
  if (!fresh && value > it->second) it->second = value;
}

void MetricsRegistry::observe(std::string_view name, std::uint64_t value,
                              std::uint64_t weight) {
  const std::lock_guard<std::mutex> lk(mu_);
  data_.histograms[std::string(name)].record(value, weight);
}

void MetricsRegistry::time_add(std::string_view name, double seconds) {
  const std::lock_guard<std::mutex> lk(mu_);
  data_.timings[std::string(name)] += seconds;
}

void MetricsRegistry::label(std::string_view name, std::string value) {
  const std::lock_guard<std::mutex> lk(mu_);
  data_.labels[std::string(name)] = std::move(value);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return data_;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lk(mu_);
  data_ = MetricsSnapshot{};
}

// ---- global install ---------------------------------------------------------

MetricsRegistry* metrics() {
  return g_metrics.load(std::memory_order_relaxed);
}

void install_metrics(MetricsRegistry* registry) {
  g_metrics.store(registry, std::memory_order_release);
}

ScopedMetrics::ScopedMetrics(MetricsRegistry& registry)
    : previous_(metrics()) {
  install_metrics(&registry);
}

ScopedMetrics::~ScopedMetrics() { install_metrics(previous_); }

}  // namespace folvec::telemetry

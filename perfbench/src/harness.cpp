#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "vm/buffer_pool.h"

namespace perfbench {

namespace vm = folvec::vm;

vm::MachineConfig deployment_machine_config() {
  vm::MachineConfig cfg;
  cfg.backend = vm::BackendKind::kParallelSimd;
  cfg.simd_level = vm::SimdLevel::kAuto;
  cfg.backend_threads = kBackendThreads;
  cfg.audit = false;
  cfg.analysis = false;
  // The library defaults when no FOLVEC_* variable is set, pinned here so
  // the environment cannot change them.
  cfg.fuse = true;
  cfg.adaptive = true;
  return cfg;
}

// ---- SpanLog ----------------------------------------------------------------

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t SpanLog::open(const char* name, std::uint64_t trace_id,
                           std::int32_t parent) {
  spans_.push_back(Span{name, now_ns(), -1, parent, trace_id});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

double SpanLog::total_seconds(const char* name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && std::string_view(s.name) == name) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

double SpanLog::child_seconds() const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.parent != kNoParent) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"trace_id\":" << s.trace_id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- CostSnap ---------------------------------------------------------------

CostSnap CostSnap::of(const std::vector<vm::VectorMachine*>& machines) {
  CostSnap s;
  const vm::CostParams params = vm::CostParams::s810_like();
  for (vm::VectorMachine* m : machines) {
    const vm::CostAccumulator& c = m->cost();
    for (std::size_t i = 0; i < vm::kOpClassCount; ++i) {
      const auto cls = static_cast<vm::OpClass>(i);
      s.instructions[i] += c.instructions(cls);
      s.elements[i] += c.elements(cls);
      s.wall[i] += c.wall_seconds(cls);
    }
    s.modeled_us += c.microseconds(params);
    s.buffer_acquires += m->pool().stats().acquires;
    s.buffer_hits += m->pool().stats().hits;
  }
  return s;
}

CostSnap CostSnap::operator-(const CostSnap& before) const {
  CostSnap d;
  for (std::size_t i = 0; i < vm::kOpClassCount; ++i) {
    d.instructions[i] = instructions[i] - before.instructions[i];
    d.elements[i] = elements[i] - before.elements[i];
    d.wall[i] = wall[i] - before.wall[i];
  }
  d.modeled_us = modeled_us - before.modeled_us;
  d.buffer_acquires = buffer_acquires - before.buffer_acquires;
  d.buffer_hits = buffer_hits - before.buffer_hits;
  return d;
}

CostSnap& CostSnap::operator+=(const CostSnap& other) {
  for (std::size_t i = 0; i < vm::kOpClassCount; ++i) {
    instructions[i] += other.instructions[i];
    elements[i] += other.elements[i];
    wall[i] += other.wall[i];
  }
  modeled_us += other.modeled_us;
  buffer_acquires += other.buffer_acquires;
  buffer_hits += other.buffer_hits;
  return *this;
}

folvec::telemetry::MetricsSnapshot registry_snapshot() {
  if (folvec::telemetry::MetricsRegistry* r = folvec::telemetry::metrics()) {
    return r->snapshot();
  }
  return {};
}

// ---- the timed phase -------------------------------------------------------

PhaseResult run_phase(Workload& w, double seconds, SpanLog* spans) {
  using folvec::telemetry::MetricsSnapshot;
  PhaseResult r;
  r.step_latency_ms.resize(w.segments() * w.segment_steps());
  std::uint64_t trace_id = 0;
  for (;; ++r.segments) {
    const std::size_t segment = r.segments % w.segments();
    if (r.segments > 0) {
      const ScopedSpan s(spans, "bench.restore", trace_id);
      w.restore(segment);
    }
    const std::vector<vm::VectorMachine*> ms = w.machines();
    const CostSnap c0 = CostSnap::of(ms);
    const MetricsSnapshot reg0 = registry_snapshot();
    const Counts counts0 = w.counts();
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < w.segment_steps(); ++j, ++trace_id) {
      double latency_ms = 0;
      r.ops += w.step(segment, j, trace_id, spans, &latency_ms);
      r.step_latency_ms[segment * w.segment_steps() + j].push_back(latency_ms);
    }
    r.wall_s += seconds_between(t0, Clock::now());
    r.steps += w.segment_steps();
    const CostSnap cost = CostSnap::of(ms) - c0;
    const MetricsSnapshot reg = MetricsSnapshot::diff(registry_snapshot(), reg0);
    r.phase_cost += cost;
    r.phase_registry.merge(reg);
    if (r.segments < w.segments()) {
      r.prefix.ops = r.ops;
      r.prefix.cost += cost;
      r.prefix.registry.merge(reg);
      r.prefix.at_end = w.counts();
      for (const auto& [name, value] : r.prefix.at_end) {
        r.prefix.counted[name] += value - counts0.at(name);
      }
    }
    if (r.segments + 1 >= w.segments() && r.wall_s >= seconds) break;
  }
  ++r.segments;
  return r;
}

double op_wall_seconds(const PhaseResult& phase) {
  double s = 0;
  for (const double w : phase.phase_cost.wall) s += w;
  return s;
}

// ---- inputs and statistics --------------------------------------------------

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t ZipfSampler::index_of(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank, xs.size()) - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

}  // namespace perfbench

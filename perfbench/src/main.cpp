// perfbench: the end-to-end and per-layer benchmark of folvec.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--commit <id>]
//
// Untraced (--trace 0): sets the workload up kSetups times (reporting the
// median as setup_s), runs the timed phase for --seconds on the last
// instance, checks every answer against a sequential reference and prints
// the end-to-end metrics. Traced (--trace 1): runs the timed phase twice for
// --seconds / 2 each, first untraced, then with a telemetry registry and the
// benchmark's own spans installed, and prints the per-layer metrics and the
// tracing overhead; the spans are written as Chrome trace JSON. A timed
// phase always ends on a segment boundary (see harness.h).
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status: 0 ok, 1 wrong answers, 2 refused configuration,
// 3 a program call threw.
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "vm/simd_backend.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace vm = folvec::vm;
namespace telemetry = folvec::telemetry;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},         {"p90_ms", "ms"},
    {"modeled_us_per_op", "us"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"vm.instructions_per_op", "count/op"},
    {"vm.mean_vl", "lanes"},
    {"vm.mean_vl.arith", "lanes"},
    {"vm.mean_vl.gather", "lanes"},
    {"vm.mean_vl.scatter", "lanes"},
    {"vm.mean_vl.compress", "lanes"},
    {"vm.op_wall_s", "s"},
    {"vm.op_wall_frac", "frac"},
    {"vm.ns_per_element", "ns"},
    {"vm.computed_bytes_per_op", "B/op"},
    {"vm.buffer_pool.hit_frac", "frac"},
    {"fol.rounds_per_call", "count"},
    {"fol.mean_set_lanes", "lanes"},
    {"fol.drained_frac", "frac"},
    {"fol.contested_frac", "frac"},
    {"hashing.upsert_s", "s"},
    {"hashing.lookup_s", "s"},
    {"hashing.chain_insert_s", "s"},
    {"hashing.host_s", "s"},
    {"hashing.rehashes", "count"},
    {"hashing.slots_per_key", "ratio"},
    {"hashing.lookup_sweep_exhausted", "count"},
    {"serve.submit_s", "s"},
    {"serve.pump_s", "s"},
    {"serve.host_us_per_op", "us"},
    {"serve.bloom.skip_frac", "frac"},
    {"serve.bloom.rebuilds_per_erase", "ratio"},
    {"serve.shard_lanes_per_request", "lanes"},
    {"telemetry.overhead_frac", "frac"},
    {"bench.client_frac", "frac"},
};

/// Environment variables that change library behaviour. The benchmark pins
/// the machine configuration in code and refuses to run with any of them
/// set, so a stray variable cannot skew a measurement.
constexpr const char* kRefusedEnv[] = {
    "FOLVEC_AUDIT",     "FOLVEC_AUDIT_ELIDE", "FOLVEC_ANALYSIS",
    "FOLVEC_BACKEND",   "FOLVEC_SIMD_LEVEL",  "FOLVEC_FUSE",
    "FOLVEC_ADAPTIVE",  "FOLVEC_FAULT_SEED",  "FOLVEC_FAULT_SPEC",
    "FOLVEC_TRACE_JSON", "FOLVEC_METRICS",
};

/// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
  std::string commit = "unknown";
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        o.workload = v;
      } else if (k == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        o.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") refuse("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (k == "--trace-dir") {
        o.trace_dir = v;
      } else if (k == "--commit") {
        o.commit = v;
      } else {
        refuse("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      refuse("bad value for " + k + ": " + v);
    }
  }
  if (argc % 2 == 0) refuse("options come in --name value pairs");
  if (o.workload.empty() || !have_seed || !(o.seconds > 0)) {
    refuse("usage: perfbench --workload <name> --seed <n> --seconds <s> "
           "--trace <0|1>");
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "bulk_load") return make_bulk_load(o.seed);
  if (o.workload == "symbol_intern") return make_symbol_intern(o.seed);
  if (o.workload == "serve_uniform") return make_serve(o.seed, false);
  if (o.workload == "serve_zipf") return make_serve(o.seed, true);
  refuse("unknown workload " + o.workload);
}

/// This process's peak resident set (VmHWM). Not getrusage's ru_maxrss,
/// which carries over the high-water mark of the process that exec'd us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// Samples how many of this process's threads are running or runnable
/// ('R' in /proc/self/task/*/stat), excluding the sampler itself.
class RunnableSampler {
 public:
  RunnableSampler() : thread_([this] { loop(); }) {}
  ~RunnableSampler() {
    stop_ = true;
    thread_.join();
  }
  RunnableSampler(const RunnableSampler&) = delete;
  RunnableSampler& operator=(const RunnableSampler&) = delete;
  int max_runnable() const { return max_.load(); }

 private:
  void loop() {
    const std::string self = std::to_string(syscall(SYS_gettid));
    while (!stop_) {
      int running = 0;
      std::error_code ec;
      for (const auto& e : fs::directory_iterator("/proc/self/task", ec)) {
        if (e.path().filename() == self) continue;
        std::ifstream f(e.path() / "stat");
        std::string line;
        std::getline(f, line);
        const std::size_t p = line.rfind(')');
        if (p != std::string::npos && p + 2 < line.size() && line[p + 2] == 'R') {
          ++running;
        }
      }
      max_ = std::max(max_.load(), running);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> max_{0};
  std::thread thread_;
};

// ---- metric derivation --------------------------------------------------------

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Median over repetitions of each step of the episode: every step does
/// the same work each time it repeats, so this discards host-noise bursts
/// while keeping the steps' real differences (a rehash round, a late
/// window of a zipf segment).
std::vector<double> step_medians(const PhaseResult& ph) {
  std::vector<double> out;
  for (const std::vector<double>& reps : ph.step_latency_ms) {
    if (!reps.empty()) out.push_back(quantile(reps, 0.5));
  }
  return out;
}

double counter(const telemetry::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : static_cast<double>(it->second);
}

/// Bytes one element of each vector class reads and writes, computed from
/// the operand shapes (8-byte words, 1-byte mask lanes), not measured.
double bytes_per_element(vm::OpClass c) {
  switch (c) {
    case vm::OpClass::kVectorArith:
    case vm::OpClass::kVectorDiv:
    case vm::OpClass::kVectorGather:
    case vm::OpClass::kVectorScatter:
    case vm::OpClass::kVectorScatterOrdered:
      return 24;
    case vm::OpClass::kVectorCompare:
    case vm::OpClass::kVectorCompress:
    case vm::OpClass::kVectorPartition:
      return 17;
    case vm::OpClass::kVectorMask:
      return 3;
    case vm::OpClass::kVectorLoad:
    case vm::OpClass::kVectorStore:
      return 16;
    case vm::OpClass::kVectorReduce:
      return 8;
    case vm::OpClass::kVectorScatterGatherEq:
      return 33;
    default:
      return 0;
  }
}

void vm_values(const PhaseResult& ph, Values& out) {
  const CostSnap& c = ph.prefix.cost;
  const auto ops = static_cast<double>(ph.prefix.ops);
  const auto sum = [](const auto& arr, std::initializer_list<vm::OpClass> cs) {
    double s = 0;
    for (const vm::OpClass k : cs) s += static_cast<double>(arr[static_cast<std::size_t>(k)]);
    return s;
  };
  double instr = 0;
  double elems = 0;
  double bytes = 0;
  double phase_elems = 0;
  for (std::size_t i = 0; i < vm::kOpClassCount; ++i) {
    if (!vm::is_vector_class(static_cast<vm::OpClass>(i))) continue;
    instr += static_cast<double>(c.instructions[i]);
    elems += static_cast<double>(c.elements[i]);
    bytes += static_cast<double>(c.elements[i]) *
             bytes_per_element(static_cast<vm::OpClass>(i));
    phase_elems += static_cast<double>(ph.phase_cost.elements[i]);
  }
  const auto mean_vl = [&](std::initializer_list<vm::OpClass> cs) {
    return ratio(sum(c.elements, cs), sum(c.instructions, cs));
  };
  using vm::OpClass;
  const double op_wall = op_wall_seconds(ph);
  out["vm.instructions_per_op"] = ratio(instr, ops);
  out["vm.mean_vl"] = ratio(elems, instr);
  out["vm.mean_vl.arith"] = mean_vl({OpClass::kVectorArith});
  out["vm.mean_vl.gather"] = mean_vl({OpClass::kVectorGather});
  out["vm.mean_vl.scatter"] =
      mean_vl({OpClass::kVectorScatter, OpClass::kVectorScatterOrdered,
               OpClass::kVectorScatterGatherEq});
  out["vm.mean_vl.compress"] =
      mean_vl({OpClass::kVectorCompress, OpClass::kVectorPartition});
  out["vm.computed_bytes_per_op"] = ratio(bytes, ops);
  out["vm.buffer_pool.hit_frac"] = ratio(static_cast<double>(c.buffer_hits),
                                         static_cast<double>(c.buffer_acquires));
  out["vm.op_wall_s"] = op_wall;
  out["vm.op_wall_frac"] = ratio(op_wall, ph.wall_s);
  out["vm.ns_per_element"] = ratio(op_wall * 1e9, phase_elems);
}

void fol_values(const telemetry::MetricsSnapshot& s, Values& out) {
  const double calls = counter(s, "fol1.calls");
  const double contested = counter(s, "fol1.contested_lanes");
  double set_lanes = 0;
  double sets = 0;
  if (const auto it = s.histograms.find("fol1.set_size"); it != s.histograms.end()) {
    set_lanes = static_cast<double>(it->second.sum);
    sets = static_cast<double>(it->second.count);
  }
  out["fol.rounds_per_call"] = ratio(counter(s, "fol1.rounds"), calls);
  out["fol.mean_set_lanes"] = ratio(set_lanes, sets);
  out["fol.drained_frac"] =
      ratio(counter(s, "fol1.adaptive_drained_lanes"), counter(s, "fol1.lanes"));
  out["fol.contested_frac"] = ratio(contested, set_lanes + contested);
}

// ---- output -------------------------------------------------------------------

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N], const Values& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    out += (i == 0 ? "" : ", ") + json_string(defs[i].name) + ": {\"value\": " +
           json_number(v) + ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return out + "}";
}

std::string object_json(const std::map<std::string, std::string>& kv) {
  std::string out = "{";
  for (const auto& [k, v] : kv) {
    out += (out.size() == 1 ? "" : ", ") + json_string(k) + ": " + json_string(v);
  }
  return out + "}";
}

// ---- the two run modes ----------------------------------------------------------

struct Outcome {
  Values values;
  Verdict verdict;
  std::map<std::string, std::string> facts;
};

void add(Verdict& total, const Verdict& v) {
  total.attempted += v.attempted;
  total.failed += v.failed;
}

Outcome untraced(Workload& w, const Options& o) {
  Outcome out;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) w.teardown();
    const auto t0 = Clock::now();
    w.setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const PhaseResult ph = run_phase(w, o.seconds, nullptr);
  out.values["peak_rss_mb"] = peak_rss_mb();
  out.verdict = w.verify();
  w.teardown();
  out.values["setup_s"] = quantile(setup_s, 0.5);
  out.values["ops_per_s"] = static_cast<double>(ph.ops) / ph.wall_s;
  const std::vector<double> steps = step_medians(ph);
  out.values["p50_ms"] = quantile(steps, 0.50);
  out.values["p90_ms"] = quantile(steps, 0.90);
  out.values["modeled_us_per_op"] =
      ph.prefix.cost.modeled_us / static_cast<double>(ph.prefix.ops);
  out.facts["latency_steps"] = std::to_string(ph.steps);
  out.facts["setup_s_all"] = [&] {
    std::string all;
    for (const double t : setup_s) {
      if (!all.empty()) all += ' ';
      all += json_number(t);
    }
    return all;
  }();
  out.facts["segments"] = std::to_string(ph.segments);
  out.facts["timed_ops"] = std::to_string(ph.ops);
  out.facts["count_window_ops"] = std::to_string(ph.prefix.ops);
  return out;
}

Outcome traced(Workload& w, const Options& o) {
  Outcome out;
  const double half = o.seconds / 2;

  w.setup();
  const PhaseResult plain = run_phase(w, half, nullptr);
  add(out.verdict, w.verify());
  w.teardown();

  telemetry::MetricsRegistry reg;
  SpanLog spans(Clock::now());
  PhaseResult ph;
  int max_runnable = 0;
  {
    const telemetry::ScopedMetrics scope(reg);
    w.setup();
    {
      const RunnableSampler sampler;
      ph = run_phase(w, half, &spans);
      max_runnable = sampler.max_runnable();
    }
    w.layer_values(ph, spans, out.values);
    add(out.verdict, w.verify());
    w.teardown();
  }
  vm_values(ph, out.values);
  fol_values(ph.prefix.registry, out.values);
  out.values["hashing.lookup_sweep_exhausted"] =
      counter(ph.phase_registry, "hashing.lookup_sweep_exhausted");
  const double plain_rate = static_cast<double>(plain.ops) / plain.wall_s;
  const double traced_rate = static_cast<double>(ph.ops) / ph.wall_s;
  out.values["telemetry.overhead_frac"] = (plain_rate - traced_rate) / plain_rate;
  out.values["bench.client_frac"] =
      (ph.wall_s - spans.child_seconds()) / ph.wall_s;

  const auto nproc = static_cast<int>(std::thread::hardware_concurrency());
  out.facts["max_runnable_threads"] = std::to_string(max_runnable);
  if (nproc > 0 && max_runnable > nproc) {
    // Oversubscribed: the measurement is not of the deployment configuration.
    std::fprintf(stderr, "perfbench: %d runnable threads on %d cores\n",
                 max_runnable, nproc);
    out.verdict.failed += 1;
  }
  std::error_code ec;
  fs::create_directories(o.trace_dir, ec);
  const std::string path = o.trace_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".trace.json";
  out.facts["trace_file"] = spans.write_chrome_trace(path) ? path : "unwritten";
  out.facts["spans"] = std::to_string(spans.size());
  return out;
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      refuse(std::string("refusing to run with ") + name +
             " set: it changes the configuration under test");
    }
  }
  const unsigned nproc = std::thread::hardware_concurrency();

  std::unique_ptr<Workload> w = make_workload(o);  // generates every input
  std::map<std::string, std::string> facts = w->describe();
  {
    const vm::VectorMachine probe(deployment_machine_config());
    facts["backend"] = probe.backend_name();
    facts["workers"] = std::to_string(probe.backend_workers());
    facts["simd_level"] = vm::simd_level_name(probe.active_simd_level());
  }
  facts["nproc"] = std::to_string(nproc);
  facts["workload"] = o.workload;
  facts["seed"] = std::to_string(o.seed);
  facts["seconds"] = json_number(o.seconds);
  facts["setups"] = std::to_string(kSetups);
  facts["build_type"] = PERFBENCH_BUILD_TYPE;
  facts["compiler"] = PERFBENCH_COMPILER;
  facts["commit"] = o.commit;

  Outcome out = o.trace ? traced(*w, o) : untraced(*w, o);
  facts.insert(out.facts.begin(), out.facts.end());
  facts["error_frac"] =
      json_number(ratio(static_cast<double>(out.verdict.failed),
                        static_cast<double>(out.verdict.attempted)));
  std::printf("perfbench provenance: %s\n", object_json(facts).c_str());

  const bool correct = out.verdict.failed == 0 && out.verdict.attempted > 0;
  const std::string metrics = o.trace ? metrics_json(kPerLayer, out.values)
                                      : metrics_json(kEndToEnd, out.values);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", out.verdict.attempted,
              out.verdict.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: a program call threw: %s\n", e.what());
    return 3;
  }
}

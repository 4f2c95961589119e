// Machine-readable bench reports.
//
// Every binary in bench/ owns one BenchReport for the duration of main().
// On construction it starts a telemetry::EnvSession (installing a metrics
// registry process-wide and honoring FOLVEC_TRACE_JSON / FOLVEC_METRICS);
// on destruction it writes BENCH_<name>.json — the JSON twin of the bench's
// printed tables plus the full metric snapshot — so CI and plotting scripts
// consume the same run the human-readable output describes.
//
// Report schema ("folvec-bench-report-v2"; see docs/observability.md):
//   schema       the literal schema id
//   bench        the bench name
//   config       bench-declared parameters (config())
//   backend      execution backend of a default-config machine: name
//                ("serial" or "simd") and simd_level (the kernel table's
//                level: "scalar", "neon", "avx2" or "avx512")
//   chime        modeled totals summed from the vm.op.* counters:
//                instructions, elements
//   wall         host seconds between report construction and write
//   calibration  model-fidelity section from the session profiler: per
//                op class the least-squares wall_ns ~ a_ns + b_ns *
//                elements fit (with R² and RMS residual), wall_ns
//                p50/p90/p99 percentiles, and the chime model's constants;
//                plus the worst-residual op-class names
//   tables       JSON twins of every TablePrinter handed to add_table()
//   notes        free-form result values (note())
//   metrics      the full MetricsSnapshot (counters/gauges/histograms/
//                timings/labels)
//
// The file lands in FOLVEC_BENCH_JSON_DIR (created by the caller) or the
// current directory.
#pragma once

#include <chrono>
#include <string>
#include <string_view>

#include "support/json.h"
#include "support/table_printer.h"
#include "telemetry/session.h"

namespace folvec::bench {

class BenchReport {
 public:
  explicit BenchReport(std::string name);
  /// Writes the report if write() has not run yet.
  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Declares one input parameter of the run (table size, seed count, ...).
  void config(std::string_view key, JsonValue value);

  /// Records one result value (peaks, measured ratios, pass/fail flags).
  void note(std::string_view key, JsonValue value);

  /// Captures a printed table as its JSON twin (headers + rendered rows).
  void add_table(std::string_view title, const TablePrinter& table);

  /// The session's registry, for benches that want explicit snapshots.
  telemetry::MetricsRegistry& registry() { return session_.registry(); }

  /// Writes BENCH_<name>.json (and flushes the telemetry session, so the
  /// FOLVEC_TRACE_JSON file is complete first). Returns false on I/O error;
  /// safe to call once, after which the destructor does nothing.
  bool write();

  /// Destination path of the report file.
  std::string path() const;

 private:
  telemetry::EnvSession session_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  JsonObject config_;
  JsonObject notes_;
  JsonArray tables_;
  bool written_ = false;
};

}  // namespace folvec::bench

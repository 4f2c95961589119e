// Span tracing with Chrome trace-event export.
//
// A SpanTracer collects a timeline of nested spans — algorithm phases like
// `fol1.decompose > round[3] > v.scatter` — each carrying measured host
// wall time and, when the opener supplies them, chime deltas (modeled
// instruction/element counts). The timeline serializes as Chrome
// trace-event JSON, so a run opens directly in chrome://tracing or
// https://ui.perfetto.dev.
//
// Like the metrics registry, the tracer is a process-wide borrowed
// pointer, nullptr by default: every probe is one relaxed atomic
// load when tracing is off. Set FOLVEC_TRACE_JSON=<path> to have
// telemetry::EnvSession (used by every bench binary) install a tracer and
// write the file at exit.
//
// Recording is multi-track: each recording thread gets its own event
// buffer and open-span stack (a "track"), registered on first use and
// written only by its owning thread, so concurrent recording needs no
// per-event locking (the serving layer's threaded mode records from its
// own threads). Tracks export with the thread's real OS tid plus a Chrome
// "thread_name" metadata event — "main" for the constructing thread,
// "thread-<tid>" for any other. Counter samples ride the track of the
// thread that emits them.
//
// Export (write_chrome_trace / size / dropped) takes a registry lock but
// reads the per-thread buffers unlocked: callers must ensure recording
// threads are quiescent first (joined, or synchronized with the exporter).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace folvec::telemetry {

class SpanTracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// `capacity` bounds the stored event count per track (long bench runs
  /// would otherwise grow without limit); events past the cap are counted
  /// in dropped() but not stored. Open-span stack depth is unaffected.
  explicit SpanTracer(std::size_t capacity = kDefaultCapacity);
  ~SpanTracer();

  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  /// Opens a nested span on the calling thread's track.
  /// `chime_instructions`/`chime_elements` are the opener's running totals
  /// (0 when unknown); the matching end() computes the deltas attributed
  /// to the span.
  void begin(std::string name, std::uint64_t chime_instructions = 0,
             std::uint64_t chime_elements = 0);

  /// Closes the calling thread's innermost open span. Unbalanced end() is
  /// ignored.
  void end(std::uint64_t chime_instructions = 0,
           std::uint64_t chime_elements = 0);

  /// Records one leaf event for a machine instruction: `static_name` must
  /// point at storage that outlives the tracer (op-class mnemonics do).
  void op(const char* static_name, std::size_t elements, Clock::time_point start,
          Clock::time_point end);

  /// Emits a Chrome counter ("ph":"C") sample at now. Counters sharing a
  /// `static_name` form one counter track regardless of emitting thread.
  void counter(const char* static_name, double value);

  /// Stored events across all tracks (requires recording quiescence).
  std::size_t size() const;
  /// Events discarded because a track's capacity was reached.
  std::size_t dropped() const;
  /// Depth of the calling thread's currently open spans.
  std::size_t open_depth() const;
  /// Number of registered per-thread tracks.
  std::size_t track_count() const;

  /// Writes the collected timeline as a Chrome trace-event JSON object:
  /// {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}.
  /// Tracks export in registration order (main first) with thread_name /
  /// thread_sort_index metadata and the real OS tid on every event. Open
  /// spans are closed as-of-now in the output (the tracer's own state is
  /// not modified). Requires recording quiescence (see file comment).
  void write_chrome_trace(std::ostream& os) const;

  /// Convenience: write_chrome_trace to `path`; returns false on I/O error.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  enum class EventKind : std::uint8_t {
    kSpan,
    kOp,
    kCounter,
  };
  struct Event {
    EventKind kind = EventKind::kSpan;
    const char* static_name = nullptr;  // non-null for all kinds but kSpan
    std::string name;                   // kSpan only
    double ts_us = 0.0;
    double dur_us = 0.0;                    // "X" kinds only
    std::uint64_t elements = 0;             // kOp lanes
    std::uint64_t chime_instructions = 0;   // kSpan only
    std::uint64_t chime_elements = 0;       // kSpan only
    double value = 0.0;                     // kCounter only
  };
  struct Open {
    std::string name;
    Clock::time_point start;
    std::uint64_t chime_instructions;
    std::uint64_t chime_elements;
  };
  struct Track {
    std::uint64_t tid = 0;    // real OS tid (or a hash fallback)
    std::string name;         // "main" for the constructing thread, else ""
    std::vector<Event> events;
    std::vector<Open> stack;
    std::size_t dropped = 0;
  };

  double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  /// The calling thread's track, registering (under registry_mu_) on first
  /// use. Subsequent calls from the same thread are lock-free.
  Track& track();
  void push(Track& t, Event e);
  void append_event_json(std::ostream& os, const Event& e, std::uint64_t tid,
                         bool& first) const;

  Clock::time_point epoch_;
  std::size_t capacity_;
  std::uint64_t serial_;  // process-unique, keys the thread-local cache
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Track>> tracks_;  // vector guarded by registry_mu_
};

/// The installed tracer, or nullptr (borrowed, same contract as metrics()).
SpanTracer* tracer();
void install_tracer(SpanTracer* t);

/// True when a tracer is installed — use to guard expensive name building.
inline bool tracing() { return tracer() != nullptr; }

/// RAII span against the installed tracer; a no-op when tracing is off.
/// Chime-carrying spans are opened through vm::AlgoSpan (vm/machine.h),
/// which reads the machine's cost accumulator on both edges.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : active_(tracing()) {
    if (active_) tracer()->begin(name);
  }
  /// Builds "prefix[index]" only when tracing is on.
  ScopedSpan(const char* prefix, std::size_t index) : active_(tracing()) {
    if (active_) {
      tracer()->begin(std::string(prefix) + '[' + std::to_string(index) + ']');
    }
  }
  ~ScopedSpan() {
    if (active_) tracer()->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

/// RAII install/uninstall of a tracer (tests, bench mains).
class ScopedTracer {
 public:
  explicit ScopedTracer(SpanTracer& t);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  SpanTracer* previous_;
};

}  // namespace folvec::telemetry

// BatchServer: ties the serving layer together — queue in front,
// coalescing policy in the middle, ShardedMap behind.
//
// Two operating modes share the same execution path:
//
//   * pump mode (deterministic) — the caller submits requests and then
//     calls pump() from its own thread; each pump takes one coalesced
//     batch and executes it. Request order is whatever the caller
//     produced, so every serve.* counter and every response is
//     bit-reproducible. The differential tests and the load bench's
//     correctness passes run this way.
//   * threaded mode — start() launches a dispatch thread that blocks on
//     the Coalescer and executes batches as they fill; stop() closes the
//     queue, drains what is left, and joins. Throughput numbers come from
//     here.
//
// Either way exactly one thread touches the ShardedMap at a time; the
// parallelism that matters is inside the shard machines (their backend
// worker pools), not across them.
//
// Execution preserves sequential semantics: a batch is split into maximal
// same-op runs in arrival order, so an upsert/lookup/erase interleaving
// observes exactly the state a one-at-a-time server would have produced.
// Within an upsert run, VectorHashMap's last-lane-wins rule covers
// duplicate keys.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/coalescer.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/sharded_map.h"
#include "telemetry/metrics.h"

namespace folvec::serve {

struct BatchServerConfig {
  ShardedMapConfig map;
  CoalescerConfig coalesce;
};

class BatchServer {
 public:
  explicit BatchServer(const BatchServerConfig& config = {});
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Enqueue one request; returns its id (0 once the queue is closed).
  /// Keys must be non-negative for every op (checked here, so a bad key
  /// never reaches a batch). Upsert values must not equal kAbsent — that sentinel is reserved for
  /// "missing" in lookup responses.
  std::uint64_t submit(OpKind op, vm::Word key, vm::Word value = 0);

  /// Pump mode: execute one coalesced batch on the calling thread.
  /// Returns the number of requests served (0 = queue empty).
  std::size_t pump();
  /// Pump until the queue is empty.
  std::size_t pump_all();

  /// Threaded mode: launch / tear down the dispatch loop. stop() closes
  /// the queue, drains remaining requests, and joins.
  void start();
  void stop();

  /// Move out all responses accumulated since the last take (thread-safe).
  std::vector<Response> take_responses();

  ShardedMap& map() { return map_; }
  RequestQueue& queue() { return queue_; }
  const Coalescer& coalescer() const { return coalescer_; }

  /// End-to-end latency (enqueue -> response), microseconds, per op kind.
  const telemetry::PercentileSketch& latency_us(OpKind op) const {
    return latency_us_[static_cast<std::size_t>(op)];
  }
  std::uint64_t served() const { return served_; }

 private:
  /// Execute one batch: split into maximal same-op runs, dispatch each to
  /// the ShardedMap, append responses, record latency.
  void execute(const std::vector<Request>& batch);

  void dispatch_loop();

  RequestQueue queue_;
  Coalescer coalescer_;
  ShardedMap map_;

  std::thread dispatcher_;
  bool running_ = false;

  std::mutex response_mu_;
  std::vector<Response> responses_;

  std::array<telemetry::PercentileSketch, kOpKindCount> latency_us_;
  std::uint64_t served_ = 0;
};

}  // namespace folvec::serve

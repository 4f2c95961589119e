#include "serve/server.h"

#include <chrono>

#include "support/require.h"
#include "telemetry/spans.h"

namespace folvec::serve {

using vm::Word;
using vm::WordVec;

const char* op_kind_name(OpKind op) {
  switch (op) {
    case OpKind::kUpsert:
      return "upsert";
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kErase:
      return "erase";
  }
  return "unknown";
}

BatchServer::BatchServer(const BatchServerConfig& config)
    : coalescer_(queue_, config.coalesce), map_(config.map) {}

BatchServer::~BatchServer() {
  if (running_) stop();
  queue_.close();
}

std::uint64_t BatchServer::submit(OpKind op, Word key, Word value) {
  FOLVEC_REQUIRE(key >= 0, "keys must be non-negative");
  FOLVEC_REQUIRE(op != OpKind::kUpsert || value != kAbsent,
                 "upsert value collides with the kAbsent lookup sentinel");
  return queue_.push(op, key, value);
}

std::size_t BatchServer::pump() {
  const std::vector<Request> batch = coalescer_.poll_batch();
  if (batch.empty()) return 0;
  execute(batch);
  return batch.size();
}

std::size_t BatchServer::pump_all() {
  std::size_t total = 0;
  for (std::size_t n = pump(); n != 0; n = pump()) total += n;
  return total;
}

void BatchServer::start() {
  FOLVEC_REQUIRE(!running_, "BatchServer already started");
  running_ = true;
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void BatchServer::stop() {
  if (!running_) return;
  queue_.close();  // dispatch_loop drains the queue, then exits
  dispatcher_.join();
  running_ = false;
}

void BatchServer::dispatch_loop() {
  while (true) {
    const std::vector<Request> batch = coalescer_.next_batch();
    if (batch.empty()) break;  // closed and drained
    execute(batch);
  }
}

std::vector<Response> BatchServer::take_responses() {
  std::vector<Response> out;
  std::lock_guard<std::mutex> lock(response_mu_);
  out.swap(responses_);
  return out;
}

void BatchServer::execute(const std::vector<Request>& batch) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<Response> replies;
  replies.reserve(batch.size());

  // Maximal same-op runs in arrival order: the cheapest split that keeps
  // an interleaved stream sequentially consistent while still handing the
  // vector layer the widest batches the stream allows.
  std::size_t i = 0;
  while (i < batch.size()) {
    std::size_t j = i;
    while (j < batch.size() && batch[j].op == batch[i].op) ++j;
    const std::size_t n = j - i;
    WordVec keys(n);
    for (std::size_t k = 0; k < n; ++k) keys[k] = batch[i + k].key;

    switch (batch[i].op) {
      case OpKind::kUpsert: {
        WordVec vals(n);
        for (std::size_t k = 0; k < n; ++k) vals[k] = batch[i + k].value;
        map_.upsert_batch(keys, vals);
        for (std::size_t k = 0; k < n; ++k) {
          replies.push_back(Response{batch[i + k].id, OpKind::kUpsert,
                                     ResponseStatus::kOk, 0});
        }
        break;
      }
      case OpKind::kLookup: {
        const WordVec found = map_.lookup_batch(keys, kAbsent);
        for (std::size_t k = 0; k < n; ++k) {
          const bool hit = found[k] != kAbsent;
          replies.push_back(Response{batch[i + k].id, OpKind::kLookup,
                                     hit ? ResponseStatus::kOk
                                         : ResponseStatus::kMissing,
                                     hit ? found[k] : 0});
        }
        break;
      }
      case OpKind::kErase: {
        map_.erase_batch(keys);
        // Batch-level removal counts live in serve.erased; per-key
        // presence would cost an extra probe pass, so erase replies are
        // uniformly kOk (erase of an absent key is a no-op, not an error).
        for (std::size_t k = 0; k < n; ++k) {
          replies.push_back(Response{batch[i + k].id, OpKind::kErase,
                                     ResponseStatus::kOk, 0});
        }
        break;
      }
    }
    i = j;
  }

  const auto end = std::chrono::steady_clock::now();
  for (const Request& r : batch) {
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        end - r.enqueued_at);
    latency_us_[static_cast<std::size_t>(r.op)].record(
        waited.count() < 0 ? 0u : static_cast<std::uint64_t>(waited.count()));
  }
  served_ += batch.size();
  telemetry::count("serve.responses", replies.size());
  telemetry::time_add("serve.batch_wall_seconds",
                      std::chrono::duration<double>(end - start).count());
  if (telemetry::tracing()) {
    telemetry::tracer()->op("serve.batch", batch.size(), start, end);
  }

  std::lock_guard<std::mutex> lock(response_mu_);
  responses_.insert(responses_.end(), replies.begin(), replies.end());
}

}  // namespace folvec::serve

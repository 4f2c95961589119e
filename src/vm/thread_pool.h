// A persistent fork-join worker pool for the parallel execution backend.
//
// The pool spawns its threads once and parks them on a condition variable
// between jobs, so per-instruction dispatch costs a wakeup, not a spawn —
// the same reason the S-3800's pipes stay powered between vector
// instructions. run_affine() is a blocking parallel-for with a static
// task→worker map: the calling thread participates as the last worker, and
// run_affine() returns only after every task has completed, which gives
// callers a full happens-before barrier over everything the tasks wrote.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace folvec::vm {

class ThreadPool {
 public:
  /// Spawns `workers - 1` pool threads; the caller of run_affine() is the
  /// final worker. `workers` must be at least 1 (1 means every job runs
  /// inline).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread.
  std::size_t size() const { return threads_.size() + 1; }

  /// Invokes fn(i) for every i in [0, tasks) and returns when all
  /// invocations have finished. Requires tasks <= size(). Pool worker i
  /// always executes task i, and the calling thread (the last logical
  /// worker) always executes task tasks-1. Because the map is a pure
  /// function of the task index, consecutive jobs with the same task count
  /// hand every worker the same task (for the backend: the same lane chunk)
  /// each time — the chunk-affinity property that keeps per-worker caches
  /// warm across consecutive instructions on equal-length vectors. If
  /// invocations throw, the exception of the lowest task index is rethrown
  /// (deterministic regardless of scheduling).
  void run_affine(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t tasks = 0;
    std::vector<std::exception_ptr> errors;
    /// Task index sacrificed to an injected kWorkerFault this job (kNoInject
    /// when none). The owning worker records the fault WITHOUT running the
    /// task body, and run_affine() re-executes the task inline after the
    /// barrier, giving exactly-once execution.
    std::size_t inject_task = kNoInject;
  };
  static constexpr std::size_t kNoInject = static_cast<std::size_t>(-1);

  /// Per-worker lifetime totals, written only by the owning worker while
  /// jobs run, read after join (destructor) to publish "pool." metrics.
  struct WorkerStats {
    double busy_seconds = 0.0;
    std::uint64_t tasks = 0;
  };

  /// Publishes pool totals to the installed metrics registry ("pool."
  /// namespace; excluded from the deterministic snapshot view).
  void flush_telemetry() const;

  void worker_loop(std::size_t worker);
  /// Runs the one statically-assigned task of `worker` (or none, for
  /// workers beyond the job's task count).
  void run_task(Job& job, std::size_t worker, WorkerStats& stats) const;

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;           // guarded by mu_
  std::uint64_t generation_ = 0;  // guarded by mu_
  std::size_t checked_in_ = 0;    // guarded by mu_
  bool stop_ = false;             // guarded by mu_
  std::vector<WorkerStats> worker_stats_;
  std::uint64_t jobs_ = 0;        ///< jobs dispatched to the pool
  std::uint64_t inline_jobs_ = 0; ///< jobs executed inline
  std::uint64_t tasks_total_ = 0;
  std::size_t max_tasks_per_job_ = 0;
};

}  // namespace folvec::vm

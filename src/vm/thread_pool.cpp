#include "vm/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "support/faultsim.h"
#include "support/require.h"
#include "telemetry/metrics.h"
#include "telemetry/spans.h"

namespace folvec::vm {

ThreadPool::ThreadPool(std::size_t workers) {
  FOLVEC_REQUIRE(workers >= 1, "thread pool needs at least one worker");
  // Slot `workers - 1` belongs to the thread calling run_affine().
  worker_stats_.resize(workers);
  threads_.reserve(workers - 1);
  for (std::size_t i = 0; i + 1 < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  flush_telemetry();
}

void ThreadPool::flush_telemetry() const {
  telemetry::MetricsRegistry* r = telemetry::metrics();
  if (r == nullptr || (jobs_ == 0 && inline_jobs_ == 0)) return;
  r->add("pool.jobs", jobs_);
  r->add("pool.inline_jobs", inline_jobs_);
  r->add("pool.tasks", tasks_total_);
  r->gauge_max("pool.max_tasks_per_job",
               static_cast<std::int64_t>(max_tasks_per_job_));
  for (std::size_t w = 0; w < worker_stats_.size(); ++w) {
    const WorkerStats& s = worker_stats_[w];
    if (s.tasks == 0) continue;
    const std::string base = "pool.worker." + std::to_string(w);
    r->add(base + ".tasks", s.tasks);
    r->time_add(base + ".busy_seconds", s.busy_seconds);
  }
}

void ThreadPool::run_task(Job& job, std::size_t worker,
                          WorkerStats& stats) const {
  // Static map: the caller (logical worker size()-1) owns task tasks-1;
  // pool worker w owns task w when w < tasks-1; everyone else just checks
  // in at the barrier.
  std::size_t task = kNoInject;
  if (worker == size() - 1) {
    task = job.tasks - 1;
  } else if (worker < job.tasks - 1) {
    task = worker;
  }
  if (task == kNoInject) return;
  const auto start = std::chrono::steady_clock::now();
  if (task == job.inject_task) {
    // Injected worker death: record the fault without touching the task
    // body. run_affine() re-dispatches the task inline after the barrier.
    job.errors[task] = std::make_exception_ptr(InjectedFault(FaultSite::kWorkerFault));
  } else {
    try {
      (*job.fn)(task);
    } catch (...) {
      job.errors[task] = std::current_exception();
    }
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  stats.busy_seconds += dt.count();
  ++stats.tasks;
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  bool named_track = false;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    // Name this worker's trace track on its first traced job, so Chrome
    // traces show "worker-<i>" lanes instead of anonymous tids. The caller
    // participates as logical worker size()-1 on the "main" track.
    if (!named_track) {
      if (telemetry::SpanTracer* t = telemetry::tracer()) {
        t->set_thread_name("worker-" + std::to_string(worker));
        named_track = true;
      }
    }
    run_task(*job, worker, worker_stats_[worker]);
    {
      const std::lock_guard<std::mutex> lk(mu_);
      ++checked_in_;
      if (checked_in_ == threads_.size()) done_cv_.notify_one();
    }
  }
}

namespace {

/// One kWorkerFault draw per job, made on the calling thread BEFORE the
/// inline/pooled split, so plans see the same decision stream regardless
/// of worker count or task granularity.
bool draw_worker_fault() {
  FaultPlan* plan = faults();
  if (plan == nullptr || !plan->fires(FaultSite::kWorkerFault)) return false;
  telemetry::count("fault.injected.worker");
  return true;
}

}  // namespace

void ThreadPool::run_affine(std::size_t tasks,
                            const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  FOLVEC_REQUIRE(tasks <= size(),
                 "run_affine needs one worker per task (tasks <= size())");
  const bool inject = draw_worker_fault();
  if (threads_.empty() || tasks == 1) {
    // Inline execution: first exception propagates naturally, which matches
    // the lowest-task-index rule because tasks run in order. An injected
    // fault has nothing to kill here — the "re-dispatch" is the same inline
    // call — so it counts as recovered immediately.
    ++inline_jobs_;
    if (inject) telemetry::count("fault.recovered.worker");
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  ++jobs_;
  tasks_total_ += tasks;
  max_tasks_per_job_ = std::max(max_tasks_per_job_, tasks);
  Job job;
  job.fn = &fn;
  job.tasks = tasks;
  job.errors.resize(tasks);
  if (inject) job.inject_task = 0;

  // Counter track: workers engaged while the job runs (0 between jobs).
  telemetry::SpanTracer* trace = telemetry::tracer();
  if (trace != nullptr) {
    trace->counter("pool.occupancy", static_cast<double>(tasks));
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    checked_in_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  run_task(job, size() - 1, worker_stats_[size() - 1]);
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return checked_in_ == threads_.size(); });
    job_ = nullptr;
  }
  if (trace != nullptr) trace->counter("pool.occupancy", 0.0);
  // Real failures win over injected ones: rethrow the lowest-index genuine
  // error (the pre-injection contract). If the only error is the injected
  // fault, recover by running the sacrificed task inline — it was never
  // started, so this is its first and only execution.
  for (std::size_t i = 0; i < job.errors.size(); ++i) {
    if (job.errors[i] == nullptr || i == job.inject_task) continue;
    std::rethrow_exception(job.errors[i]);
  }
  if (job.inject_task != kNoInject && job.errors[job.inject_task] != nullptr) {
    job.errors[job.inject_task] = nullptr;
    fn(job.inject_task);
    telemetry::count("fault.recovered.worker");
  }
}

}  // namespace folvec::vm

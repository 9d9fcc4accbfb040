#include "highrpm/runtime/thread_pool.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "highrpm/obs/obs.hpp"

namespace highrpm::runtime {

namespace {

thread_local bool t_in_worker = false;

/// RAII flag so the nested-call check also covers the caller thread while it
/// participates in a job.
struct InWorkerScope {
  InWorkerScope() { t_in_worker = true; }
  ~InWorkerScope() { t_in_worker = false; }
};

std::size_t default_thread_count() {
  if (const char* env = std::getenv("HIGHRPM_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : degree_(threads == 0 ? 1 : threads) {
  workers_.reserve(degree_ - 1);
  for (std::size_t i = 0; i + 1 < degree_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_worker() noexcept { return t_in_worker; }

void ThreadPool::serial_run(std::size_t n_tasks,
                            const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n_tasks; ++i) fn(i);
}

void ThreadPool::run(std::size_t n_tasks,
                     const std::function<void(std::size_t)>& fn) {
  // Pool telemetry: jobs submitted, tasks executed (the pool has no queue —
  // one job at a time, workers pull task indices from an atomic — so "tasks"
  // is the depth analogue), end-to-end job latency, and worker idle time
  // (measured in worker_loop around the condition-variable wait).
  static obs::Counter& jobs =
      obs::Registry::instance().counter("runtime.pool.jobs");
  static obs::Counter& serial_jobs =
      obs::Registry::instance().counter("runtime.pool.serial_jobs");
  static obs::Counter& tasks =
      obs::Registry::instance().counter("runtime.pool.tasks");
  static obs::Histogram& job_hist =
      obs::Registry::instance().histogram("runtime.pool.job_ns");

  if (t_in_worker) {
    throw std::logic_error(
        "ThreadPool::run: nested call from inside a pool worker; use "
        "parallel_for, which degrades to a serial loop");
  }
  if (n_tasks == 0) return;
  jobs.add();
  tasks.add(n_tasks);
  // Unnested: the tasks this thread runs below must see the caller's span
  // depth, not one more — a pool task's stack never depends on which
  // thread picked it up.
  const obs::Span span(job_hist, obs::kUnnested);
  if (workers_.empty() || n_tasks == 1) {
    serial_jobs.add();
    InWorkerScope scope;  // mark serial execution so nesting is still caught
    serial_run(n_tasks, fn);
    return;
  }

  auto job = std::make_shared<Job>();
  job->n = n_tasks;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_job_ = job;
    ++generation_;
  }
  job_cv_.notify_all();

  {
    InWorkerScope scope;
    work_on(*job);
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job->done.load() == job->n; });
    if (current_job_ == job) current_job_.reset();
  }
  if (job->failed.load()) {
    // Move the exception out of the job before rethrowing: the last
    // shared_ptr to the Job may be dropped by a late-waking worker, and the
    // Job's destructor must not release the exception object concurrently
    // with the caller's rethrow/catch of it.
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(job->error_mutex);
      error = std::move(job->error);
    }
    std::rethrow_exception(error);
  }
}

void ThreadPool::work_on(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);  // HIGHRPM_LINT_ALLOW(memory-order-audit): work-stealing ticket, no payload ordering
    if (i >= job.n) break;
    if (!job.failed.load(std::memory_order_relaxed)) {  // HIGHRPM_LINT_ALLOW(memory-order-audit): best-effort early-exit hint only
      try {
        (*job.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        // Keep the lowest-index exception so the error surfaced to the
        // caller does not depend on scheduling.
        if (i < job.error_index) {
          job.error_index = i;
          job.error = std::current_exception();
        }
        job.failed.store(true);
      }
    }
    if (job.done.fetch_add(1) + 1 == job.n) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  static obs::Histogram& wait_hist =
      obs::Registry::instance().histogram("runtime.pool.worker_wait_ns");
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      {
        // Idle time between jobs; recorded per wake-up so a starving pool
        // shows up as a fat tail (no clock reads while the registry's
        // runtime switch is off).
        const obs::Span wait_span(wait_hist);
        job_cv_.wait(lock, [&] {
          return stopping_ ||
                 (generation_ != seen_generation && current_job_ != nullptr);
        });
      }
      if (stopping_) return;
      seen_generation = generation_;
      job = current_job_;
    }
    InWorkerScope scope;
    work_on(*job);
  }
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_thread_count());
  return *g_pool;
}

std::size_t thread_count() { return global_pool().size(); }

void set_thread_count(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool.reset();  // destroy first: joins old workers before respawning
  g_pool = std::make_unique<ThreadPool>(
      threads == 0 ? default_thread_count() : threads);
}

}  // namespace highrpm::runtime

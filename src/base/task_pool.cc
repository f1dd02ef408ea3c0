#include "base/task_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>

namespace rbda {

namespace {

std::atomic<TaskContextCapture> g_context_capture{nullptr};
std::atomic<TaskContextSwap> g_context_swap{nullptr};

// Set while a thread is executing inside TaskPool::WorkerLoop, so nested
// ParallelFor calls degrade to the inline serial path instead of spawning
// a pool per level, and nested Submit lands on the worker's own deque.
thread_local bool t_on_worker = false;
thread_local TaskPool* t_pool = nullptr;
thread_local size_t t_pool_index = 0;

}  // namespace

void SetTaskContextHooks(TaskContextCapture capture, TaskContextSwap swap) {
  g_context_capture.store(capture, std::memory_order_release);
  g_context_swap.store(swap, std::memory_order_release);
}

bool TaskPool::OnWorkerThread() { return t_on_worker; }

TaskPool::TaskPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::Submit(std::function<void()> task) {
  // Carry the submitter's context token (e.g. the active trace span) to
  // the worker that runs the task, restoring the worker's own afterwards.
  TaskContextCapture capture =
      g_context_capture.load(std::memory_order_acquire);
  TaskContextSwap swap = g_context_swap.load(std::memory_order_acquire);
  if (capture != nullptr && swap != nullptr) {
    uint64_t token = capture();
    task = [inner = std::move(task), token, swap]() {
      struct Restore {
        TaskContextSwap swap;
        uint64_t prev;
        ~Restore() { swap(prev); }  // restore even if the task throws
      } restore{swap, swap(token)};
      inner();
    };
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  // Nested submission from a worker goes to that worker's own deque;
  // external submission is distributed round-robin.
  size_t target = t_pool == this
                      ? t_pool_index
                      : next_worker_.fetch_add(1, std::memory_order_relaxed) %
                            workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool TaskPool::TryPopOwn(size_t index, std::function<void()>* task) {
  Worker& w = *workers_[index];
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.tasks.empty()) return false;
  *task = std::move(w.tasks.back());
  w.tasks.pop_back();
  return true;
}

bool TaskPool::TrySteal(size_t thief, std::function<void()>* task) {
  size_t n = workers_.size();
  for (size_t k = 1; k < n; ++k) {
    Worker& victim = *workers_[(thief + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) continue;
    *task = std::move(victim.tasks.front());
    victim.tasks.pop_front();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void TaskPool::RunTask(std::function<void()> task) {
  try {
    task();
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_.has_value()) {
      error_ = Status::Internal(std::string("task threw: ") + e.what());
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_.has_value()) {
      error_ = Status::Internal("task threw a non-std::exception");
    }
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Take the lock before notifying so the wakeup cannot slip between
    // Wait()'s predicate check and its sleep.
    std::lock_guard<std::mutex> lock(mu_);
    idle_cv_.notify_all();
  }
}

void TaskPool::WorkerLoop(size_t index) {
  t_on_worker = true;
  t_pool = this;
  t_pool_index = index;
  std::function<void()> task;
  for (;;) {
    if (TryPopOwn(index, &task) || TrySteal(index, &task)) {
      RunTask(std::move(task));
      task = nullptr;
      continue;
    }
    // Out of work: sleep until new work or shutdown.
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) break;
    cv_.wait_for(lock, std::chrono::milliseconds(1));
    if (stop_) break;
  }
  t_pool = nullptr;
  t_on_worker = false;
}

void TaskPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

Status TaskPool::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_.value_or(Status::Ok());
}

uint64_t TaskPool::steals() const {
  return steals_.load(std::memory_order_relaxed);
}

size_t HardwareJobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ResolveJobs(size_t requested) {
  if (requested != 0) return requested;
  const char* env = std::getenv("RBDA_JOBS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 1;
}

Status ParallelFor(size_t n, size_t jobs,
                   const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::Ok();
  Status first_error;
  if (jobs <= 1 || n == 1 || TaskPool::OnWorkerThread()) {
    // The serial path: the plain loop the parallel drivers replaced, in
    // index order on the calling thread. Every index still runs so the
    // set of side effects matches the parallel path.
    for (size_t i = 0; i < n; ++i) {
      Status s;
      try {
        s = fn(i);
      } catch (const std::exception& e) {
        s = Status::Internal(std::string("task threw: ") + e.what());
      } catch (...) {
        s = Status::Internal("task threw a non-std::exception");
      }
      if (!s.ok() && first_error.ok()) first_error = s;
    }
    return first_error;
  }

  TaskPool pool(std::min(jobs, n));
  std::vector<Status> statuses(n);
  for (size_t i = 0; i < n; ++i) {
    pool.Submit([&, i] { statuses[i] = fn(i); });
  }
  pool.Wait();
  // Exceptions were captured into the pool's status; attribute them ahead
  // of per-index failures only if no indexed failure precedes... they have
  // no index, so report the first indexed failure if any, else the pool's.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return pool.status();
}

}  // namespace rbda

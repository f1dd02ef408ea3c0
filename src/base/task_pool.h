// Work-stealing thread pool and the ParallelFor/ParallelMap facade used by
// every fan-out driver (fuzz case loop, oracle sweeps, bench sweeps,
// rbda_cli decide batch mode).
//
// Design constraints (docs/PERFORMANCE.md):
//   1. jobs=1 is the serial path: ParallelFor/ParallelMap run the body
//      inline on the calling thread, in index order, touching no thread —
//      byte-for-byte the loop they replaced. Parallelism is opt-in via an
//      explicit job count, the RBDA_JOBS environment variable, or a
//      driver's --jobs flag.
//   2. Deterministic aggregation: results are keyed by case index, never
//      by completion order. The facade guarantees fn(i) runs exactly once
//      per index; callers emit index-ordered output so identical seeds
//      yield byte-identical reports at any job count.
//   3. Exceptions never escape a worker: a throwing task is captured into
//      a Status (and for ParallelFor/ParallelMap, attributed to its index;
//      the first failure by index wins).
//
// Scheduling: each worker owns a deque; it pushes and pops its own work
// LIFO at the back, and steals FIFO from the front of sibling deques when
// its own is empty. Tasks submitted from outside the pool are distributed
// round-robin; tasks submitted from a worker (nested submission) go to the
// submitting worker's own deque. A ParallelFor issued from inside a worker
// runs inline (serially) instead of spawning a nested pool, so recursive
// fan-outs cannot multiply threads.
#ifndef RBDA_BASE_TASK_POOL_H_
#define RBDA_BASE_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "base/status.h"

namespace rbda {

/// Hooks for carrying an opaque per-thread context token across task
/// submission: `capture` is called on the submitting thread at Submit();
/// `swap` installs a token on the worker around the task (returning the
/// worker's previous token, which is restored afterwards). The obs
/// library installs the active-trace-span context here so spans emitted
/// by pool workers nest under the span that submitted the work. Both
/// hooks must be set together (or both null to disable).
using TaskContextCapture = uint64_t (*)();
using TaskContextSwap = uint64_t (*)(uint64_t token);
void SetTaskContextHooks(TaskContextCapture capture, TaskContextSwap swap);

class TaskPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit TaskPool(size_t num_threads);

  /// Waits for every submitted task, then joins the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues `task`. Safe from any thread, including pool workers
  /// (nested submission: the task lands on the submitting worker's own
  /// deque and is popped LIFO, so nested work completes before the worker
  /// goes back to stealing).
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far (including tasks those
  /// tasks submitted) has finished.
  void Wait();

  /// First exception captured from a task, as a Status; OK if none.
  /// Stable once set (later failures don't overwrite it).
  Status status() const;

  size_t num_threads() const { return workers_.size(); }

  /// Total successful steals across workers (stats for tests/metrics).
  uint64_t steals() const;

  /// True iff the calling thread is a worker of any TaskPool.
  static bool OnWorkerThread();

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t index);
  bool TryPopOwn(size_t index, std::function<void()>* task);
  bool TrySteal(size_t thief, std::function<void()>* task);
  void RunTask(std::function<void()> task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;          // guards cv_ sleeps, stop_, error_
  std::condition_variable cv_;     // wakes idle workers
  std::condition_variable idle_cv_;  // wakes Wait()
  bool stop_ = false;
  std::optional<Status> error_;

  std::atomic<size_t> pending_{0};     // submitted but not finished
  std::atomic<size_t> next_worker_{0};  // round-robin external submission
  std::atomic<uint64_t> steals_{0};
};

/// Hardware concurrency, at least 1.
size_t HardwareJobs();

/// Resolves a job count: `requested` if nonzero; else the RBDA_JOBS
/// environment variable if set to a positive integer; else 1 (serial).
/// Drivers pass their --jobs flag (0 = unset) through this.
size_t ResolveJobs(size_t requested);

/// Runs fn(i) for every i in [0, n). With jobs <= 1 (or n <= 1, or when
/// already on a pool worker) the loop runs inline in index order on the
/// calling thread. Otherwise the indexes are distributed over a
/// work-stealing pool of `jobs` workers; fn must be safe to call
/// concurrently on distinct indexes. Every index runs regardless of
/// failures; the returned Status is the first non-OK result by *index*
/// (exceptions are captured into Status the same way), so the outcome is
/// identical at any job count.
Status ParallelFor(size_t n, size_t jobs,
                   const std::function<Status(size_t)>& fn);

/// ParallelFor that collects fn(i) into a vector indexed by i. On error,
/// returns the first non-OK status by index (the vector is discarded).
template <typename T>
StatusOr<std::vector<T>> ParallelMap(
    size_t n, size_t jobs, const std::function<StatusOr<T>(size_t)>& fn) {
  std::vector<std::optional<T>> slots(n);
  Status status = ParallelFor(n, jobs, [&](size_t i) -> Status {
    StatusOr<T> out = fn(i);
    if (!out.ok()) return out.status();
    slots[i].emplace(std::move(out).value());
    return Status::Ok();
  });
  if (!status.ok()) return status;
  std::vector<T> results;
  results.reserve(n);
  for (std::optional<T>& slot : slots) {
    if (!slot.has_value()) {
      return Status::Internal("ParallelMap: missing result slot");
    }
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace rbda

#endif  // RBDA_BASE_TASK_POOL_H_

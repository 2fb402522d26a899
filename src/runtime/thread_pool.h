#ifndef GOALEX_RUNTIME_THREAD_POOL_H_
#define GOALEX_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace goalex::runtime {

/// A fixed-size worker pool: the threads exec::Executor schedules task
/// graphs on, and so the workers of exec::ParallelMap (corpus-scale
/// extraction, weak labeling, evaluation) and of the trainer.
///
/// Dependency-free by design: plain std::thread workers pulling from a
/// mutex-guarded queue. A pool resolved to one thread runs every task
/// inline on the calling thread, so `num_threads = 1` reproduces serial
/// behavior exactly (no worker threads are ever spawned).
///
/// Error-delivery contract: exceptions thrown by tasks are captured; the
/// first one is rethrown on the calling thread by the next Wait() and
/// cleared there, never allowed to deadlock the pool.
/// Two corollaries, pinned by runtime_stress_test.cc:
///  - A captured error with no later Wait() (fire-and-forget Submit, or
///    tasks drained during ~ThreadPool) is logged to stderr by the
///    destructor and dropped — destruction never throws or terminates.
///  - On a serial (thread_count() == 1) pool, Submit runs the task inline
///    and returns normally even when the task throws; the error surfaces
///    on the next Wait(), exactly like the threaded path.
class ThreadPool {
 public:
  /// `num_threads <= 0` resolves to DefaultThreadCount().
  explicit ThreadPool(int num_threads = 0);

  /// Joins all workers. Pending tasks are still executed.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads doing work (>= 1; 1 means inline execution).
  int thread_count() const { return thread_count_; }

  /// std::thread::hardware_concurrency(), with a floor of 1.
  static int DefaultThreadCount();

  /// Enqueues one task. With thread_count() == 1 the task runs inline
  /// before Submit returns.
  void Submit(std::function<void()> task);

  /// Enqueues a wave of tasks under one lock and wakes exactly
  /// min(tasks, thread_count()) workers instead of notifying per task —
  /// releasing a wave of N ready graph nodes used to stampede every
  /// sleeping worker awake. The queue-depth gauge is updated once with the
  /// post-enqueue depth. On a serial pool the tasks run inline in order,
  /// matching Submit's contract.
  void SubmitBatch(std::vector<std::function<void()>> tasks);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first captured task exception (if any) and clears it.
  void Wait();

 private:
  void WorkerLoop();
  /// Runs `task` with timing accounting and captures its first exception
  /// into first_error_ for delivery by the next Wait().
  void RunTask(const std::function<void()>& task);

  int thread_count_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  ///< Queued + currently running tasks.
  bool stop_ = false;
  std::exception_ptr first_error_;

  // Observability handles, resolved once at construction; all null when
  // instrumentation is compiled out or disabled, making every update site
  // a single pointer test.
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Counter* tasks_counter_ = nullptr;
  obs::Histogram* task_seconds_hist_ = nullptr;
};

}  // namespace goalex::runtime

#endif  // GOALEX_RUNTIME_THREAD_POOL_H_

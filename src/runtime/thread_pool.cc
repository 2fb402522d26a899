#include "runtime/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace goalex::runtime {

int ThreadPool::DefaultThreadCount() {
  unsigned int n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int num_threads) {
  thread_count_ = num_threads <= 0 ? DefaultThreadCount() : num_threads;
  if (obs::Active()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    queue_depth_gauge_ = registry.GetGauge("runtime.pool.queue_depth");
    tasks_counter_ = registry.GetCounter("runtime.pool.tasks");
    task_seconds_hist_ =
        registry.GetLatencyHistogram("runtime.pool.task.seconds");
  }
  if (thread_count_ == 1) return;  // Serial fallback: inline execution.
  workers_.reserve(static_cast<size_t>(thread_count_));
  for (int i = 0; i < thread_count_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Error-delivery contract: an exception captured from a task that was
  // never followed by a Wait() cannot be rethrown here (throwing from a
  // destructor would terminate), so it is logged and dropped.
  if (first_error_) {
    try {
      std::rethrow_exception(first_error_);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "goalex: ThreadPool destroyed with unretrieved task "
                   "error: %s\n",
                   e.what());
    } catch (...) {
      std::fprintf(stderr,
                   "goalex: ThreadPool destroyed with unretrieved non-"
                   "std::exception task error\n");
    }
  }
}

void ThreadPool::RunTask(const std::function<void()>& task) {
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  try {
    task();
  } catch (...) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  if (task_seconds_hist_ != nullptr) {
    task_seconds_hist_->Observe(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
    tasks_counter_->Increment();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_gauge_ != nullptr) {
        queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      }
    }
    RunTask(task);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    RunTask(task);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++in_flight_;
    queue_.push_back(std::move(task));
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
  }
  task_ready_.notify_one();
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (workers_.empty()) {
    for (std::function<void()>& task : tasks) RunTask(task);
    return;
  }
  size_t enqueued = tasks.size();
  {
    std::unique_lock<std::mutex> lock(mu_);
    in_flight_ += enqueued;
    for (std::function<void()>& task : tasks) {
      queue_.push_back(std::move(task));
    }
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
  }
  // A wave of k tasks needs at most min(k, workers) of them awake; waking
  // the rest would just have them contend on mu_ and go back to sleep.
  size_t wake = std::min(enqueued, workers_.size());
  for (size_t i = 0; i < wake; ++i) task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace goalex::runtime

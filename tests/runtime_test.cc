// Tests of the parallel runtime layer: ThreadPool scheduling/exception
// semantics and the Stats throughput counters. The order-preserving map
// built on the pool (exec::ParallelMap) is tested in exec_test.cc.
#include "runtime/stats.h"
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace goalex::runtime {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  int value = 0;
  pool.Submit([&value] { value = 42; });  // Runs before Submit returns.
  EXPECT_EQ(value, 42);
  pool.Wait();
}

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SerialPoolPropagatesExceptionFromWait) {
  ThreadPool pool(1);
  pool.Submit([] { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(StatsTest, AccumulationAddsItemsAndTimeKeepsMaxThreads) {
  Stats total;
  Stats a{100, 2.0, 4};
  Stats b{50, 1.0, 2};
  total += a;
  total += b;
  EXPECT_EQ(total.items, 150u);
  EXPECT_DOUBLE_EQ(total.seconds, 3.0);
  EXPECT_EQ(total.threads, 4);
  EXPECT_DOUBLE_EQ(total.ItemsPerSecond(), 50.0);
}

}  // namespace
}  // namespace goalex::runtime

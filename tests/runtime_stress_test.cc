// Stress and edge-case tests for the thread pool, beyond the semantics
// covered by runtime_test.cc: error delivery when a captured task error is
// never waited on, is raised inline on a serial pool, or is one of many,
// and concurrent submitters. The fan-out contracts of the order-preserving
// map (exec::ParallelMap) live in exec_test.cc. Runs under
// GOALEX_ENABLE_TSAN.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace goalex::runtime {
namespace {

TEST(ThreadPoolErrorDeliveryTest, DestructorLogsAndDropsUnretrievedError) {
  // Fire-and-forget Submit whose error is never retrieved by Wait(): the
  // destructor must log-and-drop it, never throw or terminate.
  {
    ThreadPool pool(4);
    pool.Submit([] { throw std::runtime_error("never waited on"); });
    // No Wait(): the pool is destroyed with the captured error pending.
  }
  SUCCEED();
}

TEST(ThreadPoolErrorDeliveryTest, SerialInlineSubmitErrorSurfacesOnNextWait) {
  // On a serial pool Submit runs the task inline but still returns
  // normally when the task throws; the error is delivered by the next
  // Wait(), exactly like the threaded path.
  ThreadPool pool(1);
  pool.Submit([] { throw std::invalid_argument("serial boom"); });
  EXPECT_THROW(pool.Wait(), std::invalid_argument);
  // The error is cleared by delivery: a second Wait is clean.
  pool.Wait();
  // And the pool is still usable.
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolErrorDeliveryTest, OnlyFirstErrorIsDelivered) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("task error"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // Later errors were not queued up behind the first.
}

TEST(ThreadPoolStressTest, ConcurrentSubmittersAllExecute) {
  ThreadPool pool(8);
  std::atomic<int> executed{0};
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &executed] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

}  // namespace
}  // namespace goalex::runtime

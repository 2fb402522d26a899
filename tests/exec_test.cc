// Tests of the task-graph executor: dependency ordering (diamond/fan-in),
// cycle rejection, error propagation with cancellation of dependents, the
// 1k-node stress graph under scheduling jitter, batched worker wakeups, the
// buffer-lifetime pass (scratch lease planning + pooled allocators), and
// the fan-out contracts of the order-preserving map (ParallelMap).
#include "exec/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/graph.h"
#include "exec/lifetime.h"
#include "obs/metrics.h"
#include "runtime/stats.h"
#include "runtime/thread_pool.h"
#include "tensor/scratch.h"

namespace goalex::exec {
namespace {

void SpinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(GraphTest, AddRejectsNothingAndBuildsDiamond) {
  Graph graph;
  const NodeId a = graph.Add([] {});
  const NodeId b = graph.Add([] {}, {a});
  const NodeId c = graph.Add([] {}, {a});
  const NodeId d = graph.Add([] {}, {b, c});
  EXPECT_EQ(graph.node_count(), 4u);
  EXPECT_EQ(graph.deps(d), (std::vector<NodeId>{b, c}));
  EXPECT_TRUE(graph.Validate().ok());
}

TEST(GraphTest, AddEdgeRejectsUnknownAndSelfEdges) {
  Graph graph;
  const NodeId a = graph.Add([] {});
  EXPECT_FALSE(graph.AddEdge(a, a).ok());
  EXPECT_FALSE(graph.AddEdge(a, 7).ok());
  EXPECT_FALSE(graph.AddEdge(-1, a).ok());
}

TEST(GraphTest, ValidateRejectsCycles) {
  Graph graph;
  const NodeId a = graph.Add([] {});
  const NodeId b = graph.Add([] {}, {a});
  ASSERT_TRUE(graph.AddEdge(b, a).ok());  // Legal edge, illegal graph.
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(ExecutorTest, EmptyGraphIsANoOp) {
  runtime::ThreadPool pool(2);
  Executor executor(&pool);
  Graph graph;
  EXPECT_TRUE(executor.Run(graph).ok());
  EXPECT_EQ(executor.last_run().executed, 0u);
}

TEST(ExecutorTest, RunRejectsCyclicGraphWithoutExecutingAnything) {
  runtime::ThreadPool pool(2);
  Executor executor(&pool);
  Graph graph;
  std::atomic<int> ran{0};
  const NodeId a = graph.Add([&ran] { ran.fetch_add(1); });
  const NodeId b = graph.Add([&ran] { ran.fetch_add(1); }, {a});
  ASSERT_TRUE(graph.AddEdge(b, a).ok());
  const Status status = executor.Run(graph);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ran.load(), 0);
}

// Runs a diamond and asserts every dependency finished before its
// dependent started, at both serial and parallel worker counts.
TEST(ExecutorTest, DiamondRespectsDependencyOrder) {
  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    Executor executor(&pool);
    Graph graph;
    std::atomic<uint32_t> done_mask{0};
    auto node = [&done_mask](uint32_t bit, uint32_t required) {
      return [&done_mask, bit, required] {
        EXPECT_EQ(done_mask.load() & required, required);
        done_mask.fetch_or(bit);
      };
    };
    const NodeId a = graph.Add(node(1u, 0u));
    const NodeId b = graph.Add(node(2u, 1u), {a});
    const NodeId c = graph.Add(node(4u, 1u), {a});
    graph.Add(node(8u, 1u | 2u | 4u), {b, c});
    ASSERT_TRUE(executor.Run(graph).ok());
    EXPECT_EQ(done_mask.load(), 15u);
    EXPECT_EQ(executor.last_run().executed, 4u);
    EXPECT_EQ(executor.last_run().cancelled, 0u);
  }
}

// A fan-in reduction node must observe every producer's slot, and walking
// the slots in ascending order makes the reduced value deterministic.
TEST(ExecutorTest, FanInReductionSeesAllInputsInFixedOrder) {
  for (int threads : {1, 8}) {
    runtime::ThreadPool pool(threads);
    Executor executor(&pool);
    Graph graph;
    constexpr int kProducers = 64;
    std::vector<double> slots(kProducers, 0.0);
    std::vector<NodeId> producers;
    for (int i = 0; i < kProducers; ++i) {
      producers.push_back(graph.Add([&slots, i] {
        slots[static_cast<size_t>(i)] = static_cast<double>(i) * 0.5;
      }));
    }
    double reduced = 0.0;
    graph.Add(
        [&slots, &reduced] {
          for (double v : slots) reduced += v;  // Ascending-slot order.
        },
        producers);
    ASSERT_TRUE(executor.Run(graph).ok());
    double expected = 0.0;
    for (int i = 0; i < kProducers; ++i) expected += i * 0.5;
    EXPECT_EQ(reduced, expected);
  }
}

TEST(ExecutorTest, SerialExecutionOrderIsDeterministic) {
  std::vector<int> first_order;
  for (int rep = 0; rep < 3; ++rep) {
    runtime::ThreadPool pool(1);
    Executor executor(&pool);
    Graph graph;
    std::vector<int> order;
    const NodeId a = graph.Add([&order] { order.push_back(0); });
    const NodeId b = graph.Add([&order] { order.push_back(1); });
    graph.Add([&order] { order.push_back(2); }, {a});
    graph.Add([&order] { order.push_back(3); }, {b});
    graph.Add([&order] { order.push_back(4); }, {a, b});
    ASSERT_TRUE(executor.Run(graph).ok());
    if (rep == 0) {
      first_order = order;
    } else {
      EXPECT_EQ(order, first_order);
    }
  }
}

// First error cancels every transitive dependent, independent chains still
// run, and Run rethrows the error after the graph settles.
TEST(ExecutorTest, ErrorCancelsDependentsButNotIndependentNodes) {
  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    Executor executor(&pool);
    Graph graph;
    std::atomic<int> downstream_ran{0};
    std::atomic<int> independent_ran{0};
    const NodeId boom =
        graph.Add([] { throw std::runtime_error("node failed"); });
    const NodeId child =
        graph.Add([&downstream_ran] { downstream_ran.fetch_add(1); }, {boom});
    graph.Add([&downstream_ran] { downstream_ran.fetch_add(1); }, {child});
    graph.Add([&independent_ran] { independent_ran.fetch_add(1); });
    graph.Add([&independent_ran] { independent_ran.fetch_add(1); });
    EXPECT_THROW(executor.Run(graph), std::runtime_error);
    EXPECT_EQ(downstream_ran.load(), 0);
    EXPECT_EQ(independent_ran.load(), 2);
    EXPECT_EQ(executor.last_run().cancelled, 2u);
    // The executor is reusable after a failed run.
    Graph clean;
    std::atomic<int> ran{0};
    clean.Add([&ran] { ran.fetch_add(1); });
    EXPECT_TRUE(executor.Run(clean).ok());
    EXPECT_EQ(ran.load(), 1);
  }
}

// 1k-node layered DAG under scheduling jitter: every node's value is a
// deterministic function of its dependencies' values, so any ordering
// violation or lost node corrupts the checksum.
TEST(ExecutorStressTest, ThousandNodeGraphIsExactUnderJitter) {
  constexpr int kNodes = 1000;
  constexpr int kLayerWidth = 50;
  uint64_t expected_checksum = 0;
  for (int rep = 0; rep < 3; ++rep) {
    runtime::ThreadPool pool(8);
    Executor executor(&pool);
    Graph graph;
    std::vector<uint64_t> value(kNodes, 0);
    std::vector<std::atomic<bool>> finished(kNodes);
    for (auto& f : finished) f.store(false);
    for (int i = 0; i < kNodes; ++i) {
      std::vector<NodeId> deps;
      // Depend on up to three nodes of the previous layer (deterministic
      // pseudo-random picks, so every rep builds the same graph).
      if (i >= kLayerWidth) {
        const int layer_base = (i / kLayerWidth - 1) * kLayerWidth;
        for (int k = 0; k < 3; ++k) {
          const int pick =
              layer_base + static_cast<int>((1469598103934665603ull *
                                             static_cast<uint64_t>(i * 3 + k)) %
                                            kLayerWidth);
          deps.push_back(static_cast<NodeId>(pick));
        }
      }
      graph.Add(
          [&value, &finished, deps, i] {
            // Scheduling jitter: stagger node durations so steals and
            // wakeup waves happen at different interleavings each run.
            if (i % 7 == 0) SpinFor(std::chrono::microseconds(i % 97));
            uint64_t v = static_cast<uint64_t>(i) + 1;
            for (NodeId dep : deps) {
              EXPECT_TRUE(finished[static_cast<size_t>(dep)].load());
              v += 31 * value[static_cast<size_t>(dep)];
            }
            value[static_cast<size_t>(i)] = v;
            finished[static_cast<size_t>(i)].store(true);
          },
          deps);
    }
    ASSERT_TRUE(executor.Run(graph).ok());
    EXPECT_EQ(executor.last_run().executed,
              static_cast<size_t>(kNodes));
    uint64_t checksum = 0;
    for (uint64_t v : value) checksum = checksum * 1099511628211ull + v;
    if (rep == 0) {
      expected_checksum = checksum;
    } else {
      EXPECT_EQ(checksum, expected_checksum);
    }
  }
}

// One root releasing a wide wave into its own shard forces the other
// (otherwise idle) workers to steal.
TEST(ExecutorTest, WorkStealingMovesWaveWorkAcrossShards) {
  runtime::ThreadPool pool(2);
  Executor executor(&pool);
  Graph graph;
  const NodeId root = graph.Add([] {});
  for (int i = 0; i < 8; ++i) {
    graph.Add([] { SpinFor(std::chrono::microseconds(2000)); }, {root});
  }
  obs::Counter* steals =
      obs::MetricsRegistry::Default().GetCounter("exec.steals");
  const uint64_t before = steals->Value();
  ASSERT_TRUE(executor.Run(graph).ok());
  EXPECT_GE(executor.last_run().steals, 1u);
  // The registry counter accumulates exactly the per-run count.
  if (obs::Active()) {
    EXPECT_EQ(steals->Value() - before, executor.last_run().steals);
  }
}

TEST(ExecutorTest, CriticalPathCoversTheLongestChain) {
  runtime::ThreadPool pool(4);
  Executor executor(&pool);
  Graph graph;
  // Chain of three 2 ms nodes plus a wide layer of fast nodes: the
  // critical path must be at least the chain's duration, and busy time at
  // least the critical path.
  NodeId prev = kInvalidNode;
  for (int i = 0; i < 3; ++i) {
    prev = graph.Add(
        [] { SpinFor(std::chrono::microseconds(2000)); },
        prev == kInvalidNode ? std::vector<NodeId>{}
                             : std::vector<NodeId>{prev});
  }
  for (int i = 0; i < 4; ++i) graph.Add([] {});
  ASSERT_TRUE(executor.Run(graph).ok());
  const RunStats& stats = executor.last_run();
  EXPECT_GE(stats.critical_path_seconds, 0.006 * 0.9);
  EXPECT_GE(stats.busy_seconds, stats.critical_path_seconds);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

// Satellite regression: overlapping pipeline stages must not double-count
// busy time. Two parallel chains of spin nodes on two workers overlap
// almost perfectly; summing per-node durations over ONE shared wall clock
// keeps utilization <= ~1, where the pre-graph staged paths (each stage
// timing its own wall) would have reported ~2x.
TEST(ExecutorTest, PipelinedUtilizationDoesNotDoubleCountOverlap) {
  runtime::ThreadPool pool(2);
  Executor executor(&pool);
  Graph graph;
  for (int chain = 0; chain < 2; ++chain) {
    NodeId prev = kInvalidNode;
    for (int stage = 0; stage < 4; ++stage) {
      prev = graph.Add(
          [] { SpinFor(std::chrono::microseconds(1500)); },
          prev == kInvalidNode ? std::vector<NodeId>{}
                               : std::vector<NodeId>{prev});
    }
  }
  ASSERT_TRUE(executor.Run(graph).ok());

  runtime::Stats stats;
  stats.items = 8;
  stats.threads = pool.thread_count();
  stats.seconds = executor.last_run().wall_seconds;
  stats.busy_seconds = executor.last_run().busy_seconds;
  EXPECT_GT(stats.Utilization(), 0.05);
  EXPECT_LE(stats.Utilization(), 1.05);
  // Busy time can never exceed wall * workers (the double-count signature).
  EXPECT_LE(stats.busy_seconds, stats.seconds * 2 * 1.05);
}

TEST(ThreadPoolBatchTest, SubmitBatchRunsEverythingAndDrainsQueueGauge) {
  const bool metrics = obs::Active();
  if (metrics) obs::MetricsRegistry::Default().Reset();
  {
    runtime::ThreadPool pool(3);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([&ran] { ran.fetch_add(1); });
    }
    pool.SubmitBatch(std::move(tasks));
    pool.Wait();
    EXPECT_EQ(ran.load(), 16);
    if (metrics) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      // Queue-depth gauge still ends drained with batched wakeups, and
      // every task is accounted exactly once.
      EXPECT_EQ(registry.GetGauge("runtime.pool.queue_depth")->Value(), 0.0);
      EXPECT_EQ(registry.GetCounter("runtime.pool.tasks")->Value(), 16u);
    }
  }
  if (metrics) obs::MetricsRegistry::Default().Reset();
}

TEST(ThreadPoolBatchTest, SubmitBatchOnSerialPoolRunsInlineInOrder) {
  runtime::ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&order, i] { order.push_back(i); });
  }
  pool.SubmitBatch(std::move(tasks));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(LifetimePlanTest, MapGraphIsBoundedByWorkersAndScratchNodes) {
  Graph graph;
  for (int i = 0; i < 16; ++i) {
    graph.Add([] {}, {}, NodeOptions{/*uses_scratch=*/true});
  }
  EXPECT_EQ(PlanScratchLifetimes(graph, 4).lease_count, 4);
  EXPECT_EQ(PlanScratchLifetimes(graph, 32).lease_count, 16);
  EXPECT_EQ(PlanScratchLifetimes(graph, 4).scratch_nodes, 16u);
}

TEST(LifetimePlanTest, ChainOfScratchNodesNeedsOneLease) {
  Graph graph;
  NodeId prev = kInvalidNode;
  for (int i = 0; i < 8; ++i) {
    prev = graph.Add([] {},
                     prev == kInvalidNode ? std::vector<NodeId>{}
                                          : std::vector<NodeId>{prev},
                     NodeOptions{/*uses_scratch=*/true});
  }
  const LifetimePlan plan = PlanScratchLifetimes(graph, 8);
  EXPECT_EQ(plan.longest_scratch_chain, 8u);
  EXPECT_EQ(plan.lease_count, 1);
}

TEST(LifetimePlanTest, MixedGraphUsesAntichainBound) {
  // Diamond of scratch nodes: S = 4, longest chain L = 3 (a -> b -> d), so
  // at most S - L + 1 = 2 can ever overlap, whatever the worker count.
  Graph graph;
  const NodeId a = graph.Add([] {}, {}, NodeOptions{true});
  const NodeId b = graph.Add([] {}, {a}, NodeOptions{true});
  const NodeId c = graph.Add([] {}, {a}, NodeOptions{true});
  graph.Add([] {}, {b, c}, NodeOptions{true});
  EXPECT_EQ(PlanScratchLifetimes(graph, 8).lease_count, 2);
}

TEST(LifetimePlanTest, NonScratchNodesDoNotConsumeLeases) {
  Graph graph;
  for (int i = 0; i < 32; ++i) graph.Add([] {});
  graph.Add([] {}, {}, NodeOptions{true});
  const LifetimePlan plan = PlanScratchLifetimes(graph, 8);
  EXPECT_EQ(plan.scratch_nodes, 1u);
  EXPECT_EQ(plan.lease_count, 1);
}

TEST(ScratchPoolTest, LeasesAreRecycledNotReallocated) {
  ScratchPool scratch;
  scratch.EnsureCapacity(2);
  EXPECT_EQ(scratch.capacity(), 2);
  scratch.EnsureCapacity(1);  // Monotone: never shrinks.
  EXPECT_EQ(scratch.capacity(), 2);

  tensor::ScratchAllocator* first = scratch.Acquire();
  ASSERT_NE(first, nullptr);
  scratch.Release(first);
  tensor::ScratchAllocator* second = scratch.Acquire();
  EXPECT_EQ(second, first);  // LIFO free list reuses the warm allocator.
  scratch.Release(second);
  EXPECT_EQ(scratch.resident_allocators(), 1);
}

// Scratch-tagged nodes run inside a leased ScratchScope: storage recycles
// across node executions and reused blocks come back zero-filled, so which
// lease a node gets can never change results.
TEST(ScratchPoolTest, ExecutorLeasesRecycleZeroFilledStorage) {
  runtime::ThreadPool pool(2);
  ScratchPool scratch;
  Executor executor(&pool, &scratch);
  for (int round = 0; round < 3; ++round) {
    Graph graph;
    for (int i = 0; i < 4; ++i) {
      graph.Add(
          [] {
            std::shared_ptr<std::vector<float>> block =
                tensor::AllocateTensorStorage(256);
            for (float v : *block) EXPECT_EQ(v, 0.0f);
            (*block)[0] = 123.0f;  // Dirty it for the next tenant.
          },
          {}, NodeOptions{/*uses_scratch=*/true});
    }
    ASSERT_TRUE(executor.Run(graph).ok());
  }
  EXPECT_GT(scratch.reuse_count(), 0u);
  EXPECT_LE(scratch.resident_allocators(), 2);
  EXPECT_GT(scratch.peak_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// ParallelMap: the one fan-out primitive.

/// Maps fn over [0, n) into a vector, the way every caller uses the map.
template <typename T, typename Fn>
std::vector<T> MapToVector(runtime::ThreadPool& pool, size_t n, Fn fn) {
  std::vector<T> out(n);
  ParallelMap(pool, n, [&out, &fn](size_t i) { out[i] = fn(i); });
  return out;
}

TEST(ParallelMapTest, EmptyInputCallsNothing) {
  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    std::atomic<int> calls{0};
    const RunStats stats =
        ParallelMap(pool, 0, [&calls](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(stats.executed, 0u);
  }
}

TEST(ParallelMapTest, MoreWorkersThanItems) {
  // 16 workers, 3 items: no empty or overlapping chunks.
  runtime::ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  const RunStats stats =
      ParallelMap(pool, 3, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(stats.executed, 3u);
}

TEST(ParallelMapTest, SingleItem) {
  for (int threads : {1, 2, 16}) {
    runtime::ThreadPool pool(threads);
    std::vector<std::string> out = MapToVector<std::string>(
        pool, 1, [](size_t i) { return "item-" + std::to_string(i); });
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "item-0");
  }
}

TEST(ParallelMapTest, SerialPoolAndSingleItemRunInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  runtime::ThreadPool serial(1);
  std::atomic<int> elsewhere{0};
  ParallelMap(serial, 300, [&](size_t) {
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  runtime::ThreadPool parallel(4);
  ParallelMap(parallel, 1, [&](size_t) {
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ParallelMapTest, ChunkCountIsSixtyFourPerWorkerAtMost) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(ParallelMap(pool, 100, [](size_t) {}).executed, 100u);
  EXPECT_EQ(ParallelMap(pool, 10000, [](size_t) {}).executed, 256u);
  runtime::ThreadPool serial(1);
  EXPECT_EQ(ParallelMap(serial, 10000, [](size_t) {}).executed, 64u);
}

TEST(ParallelMapTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    runtime::ThreadPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    ParallelMap(pool, kN, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelMapTest, ItemExceptionPropagatesAndPoolStaysUsable) {
  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    EXPECT_THROW(ParallelMap(pool, 100,
                             [](size_t i) {
                               if (i == 57) {
                                 throw std::runtime_error("item 57 broke");
                               }
                             }),
                 std::runtime_error)
        << threads << " threads";
    // The pool survives: the next map is complete and correct, and the
    // stored exception does not leak into it or into a later Wait().
    std::vector<int> out = MapToVector<int>(
        pool, 100, [](size_t i) { return static_cast<int>(i); });
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i));
    }
    pool.Wait();
  }
}

TEST(ParallelMapTest, OrderHoldsUnder16ThreadsWithJitter) {
  // Jittered item costs make chunks finish far out of order; every slot
  // must still hold its own item's value. 16 workers writing disjoint
  // slots of one vector is the scenario the TSAN job watches.
  runtime::ThreadPool pool(16);
  constexpr size_t kItems = 2000;
  std::vector<uint64_t> out = MapToVector<uint64_t>(pool, kItems, [](size_t i) {
    // Deterministic per-item jitter: spin between 0 and ~40us.
    std::mt19937_64 rng(i);
    const uint64_t spin = rng() % 400;
    uint64_t acc = i;
    for (uint64_t k = 0; k < spin; ++k) acc = acc * 6364136223846793005ULL + k;
    if (spin % 7 == 0) std::this_thread::yield();
    return static_cast<uint64_t>(i) * 2 + 1;
  });
  for (size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(out[i], static_cast<uint64_t>(i) * 2 + 1) << "index " << i;
  }
}

TEST(ParallelMapTest, RepeatedMapsOnOnePoolStayExact) {
  runtime::ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    const size_t n = static_cast<size_t>(round) * 7 % 97;  // Varying sizes.
    ParallelMap(pool, n, [&sum](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), n == 0 ? 0 : n * (n - 1) / 2) << "round " << round;
  }
}

TEST(ParallelMapTest, ConcurrentMapsOnSeparatePoolsDoNotInterfere) {
  // Four pools on four caller threads, each mapping its own range: the
  // shared metrics registry is the only common state.
  constexpr int kCallers = 4;
  std::vector<std::thread> callers;
  std::vector<uint64_t> checksums(kCallers, 0);
  for (int r = 0; r < kCallers; ++r) {
    callers.emplace_back([r, &checksums] {
      runtime::ThreadPool pool(4);
      std::vector<uint64_t> out = MapToVector<uint64_t>(
          pool, 500,
          [r](size_t i) { return static_cast<uint64_t>(r) * 1000 + i; });
      uint64_t sum = 0;
      for (uint64_t v : out) sum += v;
      checksums[static_cast<size_t>(r)] = sum;
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int r = 0; r < kCallers; ++r) {
    // Sum over i of (r * 1000 + i), i in [0, 500).
    const uint64_t expected =
        static_cast<uint64_t>(r) * 1000 * 500 + 500 * 499 / 2;
    EXPECT_EQ(checksums[static_cast<size_t>(r)], expected) << "caller " << r;
  }
}

TEST(ParallelMapTest, SerialAndParallelResultsIdentical) {
  auto work = [](size_t i) {
    // Uneven per-item cost so chunks finish out of order.
    size_t acc = i;
    for (size_t k = 0; k < (i % 17) * 100; ++k) acc = acc * 31 + k;
    return acc;
  };
  runtime::ThreadPool serial(1);
  runtime::ThreadPool parallel(4);
  EXPECT_EQ(MapToVector<size_t>(serial, 500, work),
            MapToVector<size_t>(parallel, 500, work));
}

TEST(ParallelMapTest, StatsReportTheRun) {
  runtime::ThreadPool pool(2);
  const RunStats stats = ParallelMap(
      pool, 8, [](size_t) { SpinFor(std::chrono::microseconds(500)); });
  EXPECT_EQ(stats.executed, 8u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.busy_seconds, 8 * 0.0005 * 0.9);
  // A one-item map on a multi-thread pool runs inline, and its busy time
  // is still accounted (utilization of small batches must not read 0).
  runtime::ThreadPool wide(4);
  const RunStats one = ParallelMap(
      wide, 1, [](size_t) { SpinFor(std::chrono::microseconds(2000)); });
  EXPECT_GE(one.busy_seconds, 0.002 * 0.9);
  EXPECT_LE(one.busy_seconds, one.wall_seconds * 1.05);
}

TEST(ParallelMapTest, DisabledMetricsRecordNothing) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::SetEnabled(false);
  registry.Reset();
  {
    runtime::ThreadPool pool(4);
    ParallelMap(pool, 32, [](size_t) {});
  }
  obs::SetEnabled(true);
  EXPECT_EQ(registry.GetCounter("runtime.pool.tasks")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("exec.nodes")->Value(), 0u);
}

}  // namespace
}  // namespace goalex::exec

#ifndef GOALEX_EXEC_EXECUTOR_H_
#define GOALEX_EXEC_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/status.h"
#include "exec/graph.h"
#include "exec/lifetime.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace goalex::exec {

/// Counters and timings of the most recent Executor::Run.
struct RunStats {
  double wall_seconds = 0.0;
  /// Sum of node execution times — true busy time, immune to the
  /// double-counting that staged/pipelined execution causes when stage
  /// walls are summed (overlapping stages share the same wall clock).
  double busy_seconds = 0.0;
  /// Longest dependency chain weighted by measured node durations: the
  /// lower bound on wall time at infinite parallelism.
  double critical_path_seconds = 0.0;
  size_t executed = 0;
  size_t cancelled = 0;
  uint64_t steals = 0;
};

/// Runs a Graph on a runtime::ThreadPool with sharded per-worker queues.
///
/// Scheduling: each worker owns a deque; a node released by worker w is
/// pushed to w's deque and popped LIFO (chains run depth-first, so a
/// detect -> extract -> insert pipeline keeps at most ~one open chain per
/// worker and staged buffers die at their last-use node). Idle workers
/// steal FIFO from other shards — oldest nodes first, which is where
/// unstarted chains live. When a completing node releases a wave of R
/// ready nodes, exactly min(R, sleeping workers) are woken (no thundering
/// herd). On a single-thread pool the graph runs inline on the calling
/// thread in deterministic ascending-id chain order.
///
/// Error propagation: the first node exception is captured; every
/// transitive dependent that has not started is cancelled (never runs);
/// independent nodes still execute. After the graph settles, Run rethrows
/// the captured exception — the same surface-on-Wait contract as
/// runtime::ThreadPool.
///
/// Scratch lifetimes: nodes tagged NodeOptions::uses_scratch execute
/// inside a tensor::ScratchScope leased from `scratch` (see lifetime.h);
/// the lease is returned when the node finishes.
///
/// An Executor instance runs one graph at a time (not reentrant: a node
/// must not Run another graph on the same pool it executes on).
class Executor {
 public:
  /// `pool` is borrowed and must outlive the executor. `scratch` may be
  /// null (no scratch leasing).
  explicit Executor(runtime::ThreadPool* pool, ScratchPool* scratch = nullptr);

  /// Executes `graph` to completion. Returns InvalidArgument (running
  /// nothing) when the graph is cyclic; rethrows the first node exception
  /// after cancelling its dependents and letting independent nodes finish.
  Status Run(Graph& graph);

  const RunStats& last_run() const { return last_run_; }
  int worker_count() const { return pool_->thread_count(); }

 private:
  struct RunState;

  void RunSerial(Graph& graph, RunState& state);
  void RunParallel(Graph& graph, RunState& state);
  void WorkerLoop(Graph& graph, RunState& state, int worker);
  void ExecuteNode(Graph& graph, RunState& state, NodeId id, int worker);
  void ReleaseDependents(Graph& graph, RunState& state, NodeId id,
                         int worker);
  void CancelDependents(Graph& graph, RunState& state, NodeId id);
  void FinishNodes(RunState& state, size_t count);
  void FinalizeStats(const Graph& graph, RunState& state);

  runtime::ThreadPool* pool_;    ///< Not owned.
  ScratchPool* scratch_;         ///< Not owned; may be null.
  RunStats last_run_;

  // Observability handles (null when instrumentation is inactive).
  obs::Gauge* ready_depth_gauge_ = nullptr;
  obs::Counter* steals_counter_ = nullptr;
  obs::Counter* nodes_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Histogram* node_seconds_hist_ = nullptr;
  obs::Histogram* run_seconds_hist_ = nullptr;
  obs::Gauge* critical_path_gauge_ = nullptr;
  obs::Gauge* scratch_peak_gauge_ = nullptr;
};

/// The one fan-out primitive: runs fn(i) for every i in [0, n) on `pool`
/// and returns the run's stats. fn(i) writes the caller's slot i, so the
/// output is order-preserving and identical for every worker count. The
/// range is cut into min(n, 64 x workers) contiguous chunks, one graph
/// node each: enough that idle workers steal around a stalled one, few
/// enough that a chunk amortizes its scheduling. A serial pool (or n == 1)
/// runs every chunk inline on the calling thread. The first exception any
/// fn(i) throws is rethrown after the other chunks settle, and the pool
/// stays usable. fn must be safe to call concurrently for distinct i.
RunStats ParallelMap(runtime::ThreadPool& pool, size_t n,
                     const std::function<void(size_t)>& fn);

}  // namespace goalex::exec

#endif  // GOALEX_EXEC_EXECUTOR_H_

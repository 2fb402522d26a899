#ifndef GOALEX_EXEC_GRAPH_H_
#define GOALEX_EXEC_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"

namespace goalex::exec {

/// Index of a node within one Graph (dense, assigned by Add in order).
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

struct NodeOptions {
  /// Executes the node inside a tensor::ScratchScope backed by an
  /// allocator leased from the run's ScratchPool (see lifetime.h). The
  /// lease is returned when the node finishes — the node is the buffer's
  /// last use, not the end of the batch.
  bool uses_scratch = false;
};

/// A task graph: nodes with explicit dependencies, built once and executed
/// by exec::Executor. This is the one scheduling substrate shared by the
/// order-preserving map (exec::ParallelMap), the data-parallel trainer,
/// the GoalSpotter document pipeline, and the streaming ingest pipeline.
///
/// Determinism contract: the graph only constrains *when* a node may run,
/// never *where results go*. Nodes write into caller-owned slots indexed by
/// position, and reductions are expressed as a node that depends on all of
/// its inputs and walks them in a fixed order inside its callback — so the
/// output bits cannot depend on worker count or scheduling order.
///
/// Not thread-safe during construction; immutable while a run is active.
class Graph {
 public:
  /// Adds a node that becomes ready once every node in `deps` has finished.
  /// Dependencies must name previously added nodes (checked), so a graph
  /// built with Add alone is acyclic by construction. Use AddEdge for
  /// edges decided after both endpoints exist.
  NodeId Add(std::function<void()> fn, std::vector<NodeId> deps = {},
             NodeOptions options = {});

  /// Adds the dependency edge `from -> to` (to waits for from). Unknown
  /// ids or self-edges are InvalidArgument. Edges added here can form a
  /// cycle; Validate()/Executor::Run reject cyclic graphs.
  Status AddEdge(NodeId from, NodeId to);

  /// Kahn's algorithm: InvalidArgument when the graph has a cycle.
  Status Validate() const;

  size_t node_count() const { return nodes_.size(); }

  /// Read access for analysis passes (lifetime.h) and tests.
  const std::vector<NodeId>& deps(NodeId id) const {
    return nodes_[static_cast<size_t>(id)].deps;
  }
  bool uses_scratch(NodeId id) const {
    return nodes_[static_cast<size_t>(id)].uses_scratch;
  }

 private:
  friend class Executor;

  struct Node {
    std::function<void()> fn;
    std::vector<NodeId> deps;
    std::vector<NodeId> dependents;
    bool uses_scratch = false;
  };

  /// Topological order via Kahn (ties broken by ascending id); empty when
  /// the graph is cyclic.
  std::vector<NodeId> TopologicalOrder() const;

  std::vector<Node> nodes_;
};

}  // namespace goalex::exec

#endif  // GOALEX_EXEC_GRAPH_H_

#pragma once
// EnTK — the Ensemble Toolkit PST (Pipeline, Stage, Task) programming model
// (Sec. 5.2.1), generalized to an explicit stage graph.
//
// Tasks without mutual ordering share a stage; stages execute sequentially
// within a pipeline; pipelines run concurrently, each progressing at its own
// pace. A stage's post_exec callback runs when the stage completes and may
// append further stages to its pipeline — the adaptivity hook that drives
// the iterative (S3-CG)-(S2)-(S3-FG) loop and "selects parameters at
// runtime" for cost/accuracy trade-offs.
//
// The StageGraph drops the strict PST sequence: stages declare explicit
// dependencies on other stages — within one pipeline, across pipelines, or
// across campaign iterations — and AppManager::run_graph() executes every
// stage as soon as its dependencies have completed (and their post_execs
// ran). The classic PST pipeline is the linear-chain special case:
// AppManager::run() translates each Pipeline into a chain of graph nodes,
// preserving retries, the fixed stage-transition overhead, adaptive
// post_exec appends, and the per-stage obs spans.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "impeccable/common/lockdep.hpp"
#include "impeccable/rct/backend.hpp"

namespace impeccable::rct {

class Pipeline;
class StageGraph;

struct Stage {
  std::string name;
  std::vector<TaskDescription> tasks;
  /// Runs after every task of the stage finished; may mutate the pipeline
  /// (append stages) — EnTK's adaptive post-execution hook.
  std::function<void(Pipeline&)> post_exec;
};

class Pipeline {
 public:
  explicit Pipeline(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void add_stage(Stage stage) { stages_.push_back(std::move(stage)); }
  std::size_t remaining_stages() const { return stages_.size(); }

 private:
  friend class AppManager;
  std::string name_;
  std::deque<Stage> stages_;
};

/// Index of a stage node inside a StageGraph.
using NodeId = std::size_t;
inline constexpr NodeId kNoNode = ~NodeId{0};

/// One stage of a StageGraph. Tasks may be given up front (`tasks`) or
/// constructed lazily (`build`) once every dependency has completed — the
/// graph equivalent of building the next stage inside a post_exec, needed
/// when a stage's task list depends on upstream results.
struct StageNode {
  std::string name;
  /// Grouping label for the obs stage span ("pipeline" arg); also the span
  /// name when `name` is empty, mirroring PST pipelines.
  std::string pipeline;
  std::vector<TaskDescription> tasks;
  /// Lazy task construction: invoked when the node becomes ready, right
  /// before submission; the returned tasks are appended to `tasks`.
  std::function<std::vector<TaskDescription>()> build;
  /// Runs once all tasks of this node finished; may add() further nodes to
  /// the graph (adaptivity). The engine serializes post_exec callbacks —
  /// they never run concurrently, so shared-state merges need no locking.
  std::function<void(StageGraph&)> post_exec;
  /// Scheduling priority (higher first). Under AppManagerOptions::ReadyOrder
  /// ::kPriority, ready nodes launch in priority order and the node priority
  /// is added onto every task's own priority, so backend queues prefer
  /// critical-path work. Ignored (pure FIFO) under ::kFifo.
  double priority = 0.0;
};

/// A dependency graph of stages. Edges point from a node to stages it
/// depends on; dependencies must reference already-added nodes (no forward
/// edges), which structurally rules out cycles.
class StageGraph {
 public:
  /// Add a node depending on `deps` (all of which must already be in the
  /// graph). Returns the new node's id. Safe to call from a post_exec
  /// callback during execution (callbacks are serialized by the engine).
  NodeId add(StageNode node, std::vector<NodeId> deps = {});

  /// Re-weight a node's scheduling priority. Safe to call from a post_exec
  /// callback during execution (the engine reads priorities under the same
  /// serialization lock) — the hook TargetPolicy uses to steal resources for
  /// targets with rich hit rates. Takes effect for nodes not yet launched.
  void set_priority(NodeId id, double priority);
  double priority(NodeId id) const;

  std::size_t size() const { return nodes_.size(); }

 private:
  friend class AppManager;
  struct Entry {
    StageNode node;
    std::vector<NodeId> deps;
  };
  // deque: node references stay valid while post_exec appends concurrently
  // with other nodes executing.
  std::deque<Entry> nodes_;
};

struct AppManagerOptions {
  /// Fixed inter-stage transition overhead in backend seconds. Invariant to
  /// the number of tasks — the Fig. 7 "overheads ... invariant to scale"
  /// property falls out of this being a constant. Applied before any stage
  /// with at least one dependency; dependency-free roots start immediately.
  double stage_transition_overhead = 0.5;
  /// Failed tasks are resubmitted up to this many times before the failure
  /// is recorded (the paper's "careful exception handling to make the setup
  /// resilient against sporadic ... errors", Sec. 6.1.1).
  int max_retries = 0;
  /// How ready nodes leave the launch queue. kFifo is the historical
  /// arrival-order behavior; kPriority launches same-instant ready nodes in
  /// descending StageNode::priority order (arrival order within a level) and
  /// stamps the node priority onto each task so backend queues agree —
  /// critical-path waves (CG ensembles gating the pipelined makespan)
  /// preempt bulk dock waves.
  enum class ReadyOrder { kFifo, kPriority };
  ReadyOrder ready_order = ReadyOrder::kFifo;
};

/// Per-node timing of one graph run.
struct NodeReport {
  std::string name;
  std::string pipeline;
  double priority = 0.0;
  double ready = 0.0;  ///< all dependencies (and their post_execs) completed
  double begin = 0.0;  ///< tasks built and submitted
  double end = 0.0;    ///< last task finished and post_exec ran
  std::size_t tasks = 0;
  /// Time spent between becoming ready and launching: the stage-transition
  /// overhead plus any wait in the priority launch queue.
  double ready_wait() const { return begin - ready; }
};

/// Everything one run/run_graph call produced; the report is a value you can
/// keep, and the AppManager holds no state from one run to the next.
struct GraphRunReport {
  std::vector<TaskResult> results;  ///< every task result, completion order
  std::vector<NodeReport> nodes;    ///< per graph node, id order
  std::size_t retries = 0;
  double makespan = 0.0;  ///< latest task end_time on the backend clock

  std::size_t completed() const { return results.size(); }
  std::size_t failed() const;
  /// Per-node ready-queue waits (NodeReport::ready_wait), node-id order.
  std::vector<double> ready_waits() const;
  /// Log-spaced histogram of ready-queue waits: (upper_edge_seconds, count)
  /// pairs; the first bucket also absorbs zero/negative waits.
  std::vector<std::pair<double, std::size_t>> ready_wait_histogram() const;
};

/// Executes PST pipelines or an explicit stage graph on a backend (the EnTK
/// AppManager).
class AppManager {
 public:
  explicit AppManager(ExecutionBackend& backend,
                      const AppManagerOptions& opts = {});

  /// Run all pipelines to completion (blocking). Implemented as the
  /// linear-chain special case of run_graph(): each stage becomes a node
  /// depending on its predecessor.
  GraphRunReport run(std::vector<Pipeline> pipelines);

  /// Run a stage graph to completion (blocking). Every node launches once
  /// all its dependencies completed (post_exec included), plus the fixed
  /// stage-transition overhead; same-instant ready nodes leave the launch
  /// queue in ReadyOrder; independent nodes execute concurrently on the
  /// backend.
  GraphRunReport run_graph(StageGraph graph);

 private:
  struct NodeState {
    std::size_t waiting = 0;      ///< dependencies not yet completed
    std::size_t outstanding = 0;  ///< tasks still running
    bool done = false;
    double ready = 0.0;           ///< backend time dependencies completed
    double begin = 0.0;           ///< backend time the node started
    double end = 0.0;             ///< backend time the node completed
    double priority = 0.0;        ///< priority the node launched with
    std::size_t task_count = 0;   ///< submitted task count (span arg)
  };
  struct ReadyEntry {
    NodeId id = 0;
    std::uint64_t seq = 0;  ///< arrival order, the tie-break within a level
  };
  struct GraphRun {
    StageGraph graph;
    std::vector<NodeState> states;
    std::vector<std::vector<NodeId>> dependents;
    /// Nodes past their transition overhead, waiting for the next launch
    /// drain (one drain event services all same-instant arrivals, so
    /// priority order is decided over the whole wave, not arrival order).
    std::vector<ReadyEntry> launch_queue;
    bool drain_pending = false;
    std::uint64_t ready_seq = 0;
    /// Accumulators the run's GraphRunReport is built from.
    std::vector<TaskResult> results;
    std::size_t retries = 0;
    double makespan = 0.0;
    explicit GraphRun(StageGraph g) : graph(std::move(g)) {}
  };

  /// Fold nodes added since the last call into the run state; returns the
  /// ids that are immediately ready. Caller holds mutex_.
  std::vector<NodeId> integrate_locked(GraphRun& g);
  void schedule(const std::shared_ptr<GraphRun>& g, NodeId id);
  void enqueue_ready(const std::shared_ptr<GraphRun>& g, NodeId id);
  void drain_ready(const std::shared_ptr<GraphRun>& g);
  /// Build and submit a ready node's tasks. `node_priority` is recorded in
  /// the NodeReport either way; it is stamped onto the tasks (reordering the
  /// backend queues) only when `stamp_tasks` is set — i.e. under
  /// ReadyOrder::kPriority.
  void start_node(const std::shared_ptr<GraphRun>& g, NodeId id,
                  double node_priority, bool stamp_tasks);
  void submit_task(const std::shared_ptr<GraphRun>& g, NodeId id,
                   const TaskDescription& task, int attempt);
  void on_task_done(const std::shared_ptr<GraphRun>& g, NodeId id,
                    const TaskResult& result);
  void complete_node(const std::shared_ptr<GraphRun>& g, NodeId id);
  /// Pop the head stage of `pipe` into a graph node chained after `dep`.
  void chain_head(StageGraph& graph, const std::shared_ptr<Pipeline>& pipe,
                  NodeId dep);

  ExecutionBackend& backend_;
  AppManagerOptions opts_;
  common::OrderedMutex<common::lockrank::EngineState>
      mutex_;  ///< GraphRun accumulators + node states + launch queue
  common::OrderedMutex<common::lockrank::EnginePost>
      post_mutex_;  ///< serializes post_exec callbacks + graph adds
                           ///< + node-priority reads at launch drain
};

}  // namespace impeccable::rct

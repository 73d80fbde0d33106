// Out-of-order task execution engine over a TaskGraph.
//
// Workers pull ready tasks from the scheduler; completion releases
// successors. The master thread keeps submitting while workers execute, so
// the "sequential" portion of the algorithm (task submission, the join
// kernels) overlaps with useful work -- the core claim of the paper's
// parallelisation strategy.
//
// Runtime is a thin facade over the work-stealing scheduler (see
// runtime/scheduler.hpp). An exception thrown by a task body reaches the
// caller of wait_all().
#pragma once

#include <functional>
#include <memory>

#include "runtime/graph.hpp"
#include "runtime/trace.hpp"

namespace dnc::rt {

class Scheduler;

class Runtime {
 public:
  /// Spawns `threads` workers bound to `graph`. The graph must outlive the
  /// runtime. Tracing is always on; it costs two clock reads per task for
  /// the start/end stamps plus one per queue transition for the scheduler
  /// metrics (ready stamp + decimated queue-depth sample).
  Runtime(TaskGraph& graph, int threads);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Blocks until every submitted task has executed. May be called multiple
  /// times (submission can resume afterwards). If a task body threw, the
  /// bodies of the tasks still pending were skipped and the first
  /// exception is rethrown here; the runtime stays usable.
  void wait_all();

  int threads() const;

  /// Builds the execution trace (valid after wait_all): per-task events
  /// with ready stamps, priorities and annotations, dependency edges,
  /// per-worker idle time and scheduler counters, and the sampled
  /// ready-queue depth.
  Trace trace() const;

 private:
  std::unique_ptr<Scheduler> sched_;
};

/// Convenience: run a submission function to completion on `threads`
/// workers and return the trace.
Trace run_taskflow(TaskGraph& graph, int threads,
                   const std::function<void(TaskGraph&)>& submitter);

}  // namespace dnc::rt

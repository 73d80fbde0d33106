// The task scheduler behind rt::Runtime.
//
// A Scheduler owns the worker threads and the ready-task storage for one
// TaskGraph, and implements the run/complete/release cycle, quiescence
// tracking for wait_all(), idle accounting, per-worker counters, decimated
// queue-depth sampling, trace assembly and task-internal spawning.
//
// Storage: one bounded PrioDeque per worker (mutex each) plus a shared
// overflow queue. A worker releasing successors pushes them onto its own
// deque (the data they read is warm in its cache); pushes from the
// submitting thread are spread round-robin. A deque holds at most
// kDequeCap tasks; beyond that pushes spill to the overflow queue.
//
// Acquisition: own deque newest-first (LIFO keeps a worker on the subtree
// it just expanded), then the overflow queue, then a steal cycle over the
// other deques oldest-first. Priority dominates recency everywhere: every
// pop takes from the highest non-empty priority bucket. The steal cycle is
// topology-aware (arXiv 1401.4950's locality argument): same-L3 victims
// first, then same-socket, then cross-socket, and every successful steal
// is counted in its class.
//
// Idle path: after a failed full scan a worker backs off with growing
// yield bursts, then parks on a condition variable. A producer pushes,
// bumps queued_ (seq_cst), then reads sleepers_; a consumer bumps
// sleepers_ (seq_cst), then re-reads queued_ in the wait predicate under
// sleep_mu_. The seq_cst total order guarantees one side sees the other:
// the producer notifies (under sleep_mu_), or the consumer does not sleep.
//
// Quiescence: `inflight_` counts ready + running tasks. It is incremented
// *before* a task becomes visible to any worker and decremented only
// *after* the task's newly-ready successors have been enqueued, so it
// reaches zero only when nothing is queued, running, or about to be
// queued; the decrement-to-zero side notifies cv_idle_ under the waiter's
// mutex, so wait_all() cannot miss the wakeup.
//
// Errors: the first exception escaping a task body is captured. Later
// tasks still complete and release their successors, but their bodies are
// skipped, so the graph drains quickly; wait_all() then rethrows on the
// caller's thread and clears the error, leaving the scheduler reusable.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/graph.hpp"
#include "runtime/trace.hpp"

namespace dnc::rt {

/// Per-worker execution context (hwc sampler, profiler registration, the
/// stack of nested task frames). Defined in scheduler.cpp -- it embeds obs
/// types the header must not pull in.
struct WorkerCtx;

/// Priority-bucketed task queue: 64 FIFO buckets plus an occupancy bitmask
/// so the highest non-empty priority is found in O(1). Priorities outside
/// [0, 63] are clamped. Not thread-safe; callers hold their own mutex
/// (mutex-per-deque is the design point -- no lock-free heroics).
class PrioDeque {
 public:
  static constexpr int kBuckets = 64;

  void push(TaskNode* node);
  /// Highest priority, newest within it (owner-side LIFO pop).
  TaskNode* pop_newest();
  /// Highest priority, oldest within it (FIFO drain / thief-side steal).
  TaskNode* pop_oldest();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  std::array<std::deque<TaskNode*>, kBuckets> buckets_;
  std::uint64_t mask_ = 0;  // bit p set <=> buckets_[p] non-empty
  std::size_t size_ = 0;
};

/// Bounded, self-decimating time series. Keeps 1-in-stride samples; when
/// the buffer reaches `cap` it drops every other retained sample and
/// doubles the stride, so memory stays O(cap) for arbitrarily long runs
/// while the kept samples remain uniformly spread. An atomic tick
/// prefilter rejects off-stride samples without taking the mutex, so on
/// long runs the common case is lock-free.
class SampledSeries {
 public:
  explicit SampledSeries(std::size_t cap = 8192) : cap_(cap) {}

  void push(double t, int depth);
  std::vector<QueueSample> snapshot() const;
  /// Current decimation stride (1 until the first overflow).
  unsigned long long stride() const { return stride_.load(std::memory_order_relaxed); }

 private:
  std::size_t cap_;
  std::atomic<unsigned long long> tick_{0};
  std::atomic<unsigned long long> stride_{1};
  mutable std::mutex mu_;
  std::vector<QueueSample> data_;
};

/// See the file comment. Workers start in the constructor and are joined
/// (after draining every queued task) in the destructor.
class Scheduler {
 public:
  /// Spawns `threads` workers and wires graph.on_ready to them.
  Scheduler(TaskGraph& graph, int threads);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Blocks until every submitted task has executed; reusable. Rethrows
  /// the first exception a task body raised since the previous wait_all().
  void wait_all();

  int threads() const { return thread_count_; }

  /// Builds the execution trace (valid after wait_all()).
  Trace trace() const;

  /// Scheduler whose worker is executing the current thread's task, or
  /// nullptr on non-worker threads. Lets library code (e.g. parallel_gemm)
  /// discover "am I inside the runtime?" without plumbing a handle through.
  static Scheduler* current();

  /// Priority child subtasks run at: above every graph-task priority
  /// (dc::detail::task_priority tops out at 61), so spawned children drain
  /// before unrelated graph work on every queue.
  static constexpr int kChildPriority = 63;

  /// Task-internal spawning with a help-first wait. Callable from inside a
  /// running task body on one of this scheduler's workers: submits `count`
  /// child subtasks running `body(0..count-1)` onto the worker's own queue
  /// and blocks until all have finished -- but "blocks" by working: the
  /// waiting worker keeps draining its deque / stealing, so the core is
  /// never parked while children run elsewhere. Child trace events carry
  /// the parent's id and a kind named "<ParentKind>/<suffix>" (registered
  /// on first use, inheriting the parent's memory-bound flag) so
  /// obs/Perfetto/profiler attribute nested work to its spawner.
  ///
  /// Once every child has finished, rethrows the scheduler's captured
  /// exception if any task (a child or not) has raised one, so the parent
  /// body never continues on the output of skipped children.
  ///
  /// Called from a non-worker thread (or a worker of another scheduler),
  /// the bodies run inline sequentially -- library code stays correct
  /// without a runtime. `body` must be safe to invoke concurrently from
  /// multiple workers with distinct indices.
  void spawn_and_wait(const char* suffix, long count, const std::function<void(long)>& body,
                      int priority = kChildPriority);

 private:
  struct alignas(64) WorkerQueue {
    std::mutex mu;
    PrioDeque q;
  };

  /// Steal distance between a thief and a victim deque; indexes
  /// AtomicWorkerCounters::steals_by_class.
  enum StealClass : int { SameL3 = 0, SameSocket = 1, CrossSocket = 2 };

  /// Per-worker counters; relaxed atomics because idle thieves bump
  /// steal_attempts concurrently with trace() reads.
  struct AtomicWorkerCounters {
    std::atomic<long> executed{0};
    std::atomic<long> local_pops{0};
    std::atomic<long> steals{0};
    std::atomic<long> steal_attempts{0};
    std::atomic<long> failed_steals{0};
    std::atomic<long> placed{0};
    std::atomic<long> steals_by_class[3] = {0, 0, 0};
  };

  void worker_loop(int worker_id);
  /// Executes one task on this worker: timestamps, hwc deltas, profiler
  /// attribution, exception capture, completion (graph successors or child
  /// join decrement), inflight_ bookkeeping. Re-entrant -- the help-first
  /// wait inside spawn_and_wait calls it with the parent task's frame still
  /// open, and the frame stack in WorkerCtx keeps self-time/self-hwc
  /// accounting correct across arbitrary nesting depth.
  void run_task(TaskNode* node, WorkerCtx& ctx);
  /// Stamps t_ready, raises inflight_ and stores the task: on `worker`'s
  /// own deque, or round-robin when `worker` is -1 (the submitting thread).
  void enqueue(TaskNode* node, int worker);
  /// One full non-blocking pass: own deque, overflow, steal cycle. Returns
  /// nullptr when nothing was found; never sleeps.
  TaskNode* scan(int worker);
  /// Blocks until a task is available (returns it) or stop was requested
  /// and nothing is left to drain (returns nullptr).
  TaskNode* acquire(int worker);
  /// Bookkeeping when a task leaves ready storage.
  TaskNode* take(TaskNode* node);
  void sample_depth(long depth);
  void record_steal(int worker, StealClass cls);
  /// Stores std::current_exception() unless an earlier one is held.
  void capture_exception();
  /// Precomputes each worker's steal cycle (see scheduler.cpp).
  void build_victim_orders();
  /// Always-on scheduler metrics of this lifetime (DNC_METRICS).
  void publish_metrics() const;

  /// Registers (or reuses) the child kind "<parent-kind-name>/<suffix>".
  /// Child kind ids extend the graph's kind table, so the graph must not
  /// register further kinds once the first child kind exists (drivers
  /// register all kinds up front; enforced with DNC_REQUIRE).
  KindId child_kind(KindId parent_kind, const char* suffix);
  /// Interned profiler name for `kind`, extending the worker's cache
  /// lazily so child kinds registered mid-run resolve on every worker.
  const char* interned_kind(WorkerCtx& ctx, int kind);

  TaskGraph& graph_;
  int thread_count_;

  // --- ready storage ---
  std::unique_ptr<WorkerQueue[]> queues_;
  /// Per-thief victim order, nearest class first: (victim deque, class).
  std::vector<std::vector<std::pair<int, StealClass>>> victims_;
  std::atomic<unsigned> rr_{0};
  std::mutex overflow_mu_;
  PrioDeque overflow_;
  /// Pushed minus taken: the sleep predicate and the depth series.
  std::atomic<long> queued_{0};
  std::atomic<int> sleepers_{0};
  std::mutex sleep_mu_;
  std::condition_variable cv_sleep_;
  std::atomic<bool> stop_{false};

  // --- quiescence and errors ---
  std::atomic<long> inflight_{0};  // ready + running tasks
  /// Guards cv_idle_'s predicate and error_.
  std::mutex idle_mu_;
  std::condition_variable cv_idle_;
  /// First exception a task body raised since the last wait_all().
  std::exception_ptr error_;
  /// error_ is set: later task bodies are skipped.
  std::atomic<bool> failed_{false};

  std::unique_ptr<AtomicWorkerCounters[]> counters_;
  std::vector<double> idle_;  // written only by the owning worker
  SampledSeries queue_series_;
  SampledSeries steal_series_;
  std::atomic<long> total_steals_{0};
  std::atomic<int> depth_peak_{0};
  /// Set by any worker whose obs::ThreadHwc sampled at least one task;
  /// trace() stamps the backend name onto the Trace when set.
  std::atomic<bool> hwc_active_{false};

  // --- nested-subtask state (spawn_and_wait) ---
  /// Guards child_nodes_ / child_kinds_ / child_kind_ids_: child tasks are
  /// created from inside running task bodies, i.e. from many workers at
  /// once, unlike graph submission which is single-threaded.
  mutable std::mutex child_mu_;
  /// Scheduler-owned child task nodes (the TaskGraph never sees them);
  /// kept alive until destruction so trace() can read them.
  std::vector<std::unique_ptr<TaskNode>> child_nodes_;
  /// Child kinds, appended after the graph's kinds in the combined table.
  std::vector<TaskKind> child_kinds_;
  /// Size of the graph kind table when the first child kind was made; the
  /// combined kind table is graph kinds [0, base) + child_kinds_ [base, ..).
  std::size_t child_kind_base_ = 0;
  std::map<std::pair<int, std::string>, KindId> child_kind_ids_;
  /// Child ids start far above any graph id (graph ids count up from 0) so
  /// trace consumers can rely on ids staying unique across both kinds.
  std::uint64_t next_child_id_ = std::uint64_t{1} << 62;

  /// Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

/// Free-function form of task-internal spawning for library code: fans
/// `body(0..count-1)` out as child subtasks of the currently-running task
/// when the calling thread is a runtime worker, and runs it as a plain
/// sequential loop otherwise. This is how blas::parallel_gemm parallelises
/// without owning threads -- the scheduler is the only thread source.
inline void spawn_and_wait(const char* suffix, long count,
                           const std::function<void(long)>& body) {
  Scheduler* s = Scheduler::current();
  if (s != nullptr) {
    s->spawn_and_wait(suffix, count, body);
  } else {
    for (long i = 0; i < count; ++i) body(i);
  }
}

}  // namespace dnc::rt

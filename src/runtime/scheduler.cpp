#include "runtime/scheduler.hpp"

#include <bit>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/hwc.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "runtime/sched.hpp"

namespace dnc::rt {

/// Per-worker execution context. One per worker thread, stack-allocated in
/// worker_loop; the frame fields implement the nested-task accounting that
/// keeps self-time / self-hwc sums exact under spawn_and_wait's help-first
/// waiting (a worker executes children *inside* its parent's timestamps).
struct WorkerCtx {
  WorkerCtx(int id, const TaskGraph& graph) : worker_id(id), preg("worker", id) {
    sampling = hwc.active();
    if (preg.active())
      for (const TaskKind& k : graph.kinds()) kind_names.push_back(obs::profiler::intern(k.name));
  }

  int worker_id;
  /// Per-thread hardware-counter sampler (DNC_HWC). Inactive (one branch
  /// per task, no reads) unless requested.
  obs::ThreadHwc hwc;
  bool sampling = false;
  /// Sampling-profiler registration (DNC_PROFILE_HZ or a running
  /// profiler::start() session). Kind names are interned because the TaskGraph (and its
  /// kind table) dies with the solve while samples outlive it.
  obs::profiler::ThreadRegistration preg;
  std::vector<const char*> kind_names;

  // --- nested-frame accounting (see Scheduler::run_task) ---
  /// Innermost task this worker is executing (nullptr between tasks).
  TaskNode* running = nullptr;
  /// Seconds of helped child tasks executed inside the *current* frame.
  double frame_nested = 0.0;
  /// Inclusive hwc deltas of helped child tasks inside the current frame.
  std::uint64_t frame_hwc[kHwcSlots] = {0, 0, 0, 0};
  /// End of the worker's previous top-level task (or thread start): idle
  /// time runs from here to the next top-level task's start.
  double idle_mark = now_seconds();
};

namespace {
/// Worker id of the current thread (-1 on non-worker threads). Lets
/// enqueue() attribute pushes to the releasing worker even when they come
/// through graph.on_ready -- e.g. the MRRR driver submits tasks from inside
/// task bodies, and those should land on the submitting worker's deque.
thread_local int tls_worker_id = -1;
/// Scheduler owning the current worker thread plus its context; set for
/// the lifetime of worker_loop. Scheduler::current() / spawn_and_wait use
/// them to detect "am I on a worker?" without any plumbing.
thread_local Scheduler* tls_scheduler = nullptr;
thread_local WorkerCtx* tls_ctx = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// PrioDeque

void PrioDeque::push(TaskNode* node) {
  int p = node->priority;
  if (p < 0) p = 0;
  if (p >= kBuckets) p = kBuckets - 1;
  buckets_[p].push_back(node);
  mask_ |= (std::uint64_t{1} << p);
  ++size_;
}

TaskNode* PrioDeque::pop_newest() {
  if (mask_ == 0) return nullptr;
  const int p = 63 - std::countl_zero(mask_);
  TaskNode* node = buckets_[p].back();
  buckets_[p].pop_back();
  if (buckets_[p].empty()) mask_ &= ~(std::uint64_t{1} << p);
  --size_;
  return node;
}

TaskNode* PrioDeque::pop_oldest() {
  if (mask_ == 0) return nullptr;
  const int p = 63 - std::countl_zero(mask_);
  TaskNode* node = buckets_[p].front();
  buckets_[p].pop_front();
  if (buckets_[p].empty()) mask_ &= ~(std::uint64_t{1} << p);
  --size_;
  return node;
}

// ---------------------------------------------------------------------------
// SampledSeries

void SampledSeries::push(double t, int depth) {
  const unsigned long long tick = tick_.fetch_add(1, std::memory_order_relaxed);
  const unsigned long long stride = stride_.load(std::memory_order_relaxed);
  if (tick % stride != 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (data_.empty()) data_.reserve(256);
  data_.push_back({t, depth});
  if (data_.size() >= cap_) {
    // Keep every other sample; future ticks thin out by the doubled stride.
    std::size_t w = 0;
    for (std::size_t r = 0; r < data_.size(); r += 2) data_[w++] = data_[r];
    data_.resize(w);
    stride_.store(stride * 2, std::memory_order_relaxed);
  }
}

std::vector<QueueSample> SampledSeries::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return data_;
}

// ---------------------------------------------------------------------------
// Scheduler

namespace {
constexpr std::size_t kDequeCap = 4096;  // per-worker bound before spilling
constexpr int kSpinRounds = 6;           // backoff doublings before sleeping
}  // namespace

Scheduler::Scheduler(TaskGraph& graph, int threads)
    : graph_(graph), thread_count_(threads) {
  DNC_REQUIRE(threads >= 1, "Runtime needs at least one worker");
  queues_ = std::make_unique<WorkerQueue[]>(threads);
  idle_.assign(threads, 0.0);
  counters_ = std::make_unique<AtomicWorkerCounters[]>(threads);
  build_victim_orders();
  graph_.on_ready = [this](TaskNode* n) { enqueue(n, tls_worker_id); };
  workers_.reserve(threads);
  for (int i = 0; i < threads; ++i) workers_.emplace_back([this, i] { worker_loop(i); });
}

Scheduler::~Scheduler() {
  stop_.store(true, std::memory_order_seq_cst);
  // Empty critical section: a worker between its predicate check and the
  // wait holds sleep_mu_, so taking it here orders the notify after.
  { std::lock_guard<std::mutex> lk(sleep_mu_); }
  cv_sleep_.notify_all();
  for (auto& w : workers_) w.join();
  graph_.on_ready = nullptr;
  publish_metrics();
}

void Scheduler::publish_metrics() const {
  // One branch when DNC_METRICS is off. Workers are joined, so the
  // per-worker counters are final and plain relaxed reads see everything.
  if (!obs::metrics::enabled()) return;
  namespace m = obs::metrics;
  const std::string pl =
      std::string("policy=\"") + sched_policy_name(default_sched_policy()) + "\"";
  long tasks = 0;
  long by_class[3] = {0, 0, 0};
  for (int w = 0; w < thread_count_; ++w) {
    tasks += counters_[w].executed.load(std::memory_order_relaxed);
    for (int c = 0; c < 3; ++c)
      by_class[c] += counters_[w].steals_by_class[c].load(std::memory_order_relaxed);
  }
  double idle = 0.0;
  for (double d : idle_) idle += d;
  m::add(m::register_metric(m::Kind::Counter, "dnc_sched_runs_total", pl,
                            "Scheduler lifetimes (one per parallel solve)"));
  m::add(m::register_metric(m::Kind::Counter, "dnc_sched_tasks_total", pl,
                            "Tasks executed by the runtime"),
         static_cast<double>(tasks));
  m::add(m::register_metric(m::Kind::Counter, "dnc_sched_steals_total", pl,
                            "Successful work steals"),
         static_cast<double>(total_steals_.load(std::memory_order_relaxed)));
  if (by_class[SameL3] + by_class[SameSocket] + by_class[CrossSocket] > 0) {
    m::add(m::register_metric(m::Kind::Counter, "dnc_sched_steals_same_l3_total", pl,
                              "Steals whose victim shares the thief's L3 domain"),
           static_cast<double>(by_class[SameL3]));
    m::add(m::register_metric(m::Kind::Counter, "dnc_sched_steals_same_socket_total", pl,
                              "Steals within the thief's socket but across L3 domains"),
           static_cast<double>(by_class[SameSocket]));
    m::add(m::register_metric(m::Kind::Counter, "dnc_sched_steals_cross_socket_total", pl,
                              "Steals that crossed the socket interconnect"),
           static_cast<double>(by_class[CrossSocket]));
  }
  m::add(m::register_metric(m::Kind::Counter, "dnc_sched_worker_idle_seconds_total", pl,
                            "Summed per-worker idle time (s)"),
         idle);
  m::observe(m::register_metric(m::Kind::Histogram, "dnc_sched_queue_depth_peak", pl,
                                "Peak ready-queue depth per scheduler lifetime"),
             static_cast<double>(depth_peak_.load(std::memory_order_relaxed)));
}

void Scheduler::enqueue(TaskNode* node, int worker) {
  node->t_ready = now_seconds();
  // inflight_ rises before the task is visible to any worker; see the
  // quiescence argument in the header.
  inflight_.fetch_add(1, std::memory_order_relaxed);
  const int target =
      worker >= 0 ? worker
                  : static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                                     static_cast<unsigned>(thread_count_));
  bool spilled = false;
  {
    std::lock_guard<std::mutex> lk(queues_[target].mu);
    if (queues_[target].q.size() < kDequeCap) {
      queues_[target].q.push(node);
    } else {
      spilled = true;
    }
  }
  if (spilled) {
    std::lock_guard<std::mutex> lk(overflow_mu_);
    overflow_.push(node);
  } else if (worker < 0) {
    counters_[target].placed.fetch_add(1, std::memory_order_relaxed);
  }
  const long depth = queued_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lk(sleep_mu_); }
    cv_sleep_.notify_one();
  }
  sample_depth(depth);
}

TaskNode* Scheduler::take(TaskNode* node) {
  sample_depth(queued_.fetch_sub(1, std::memory_order_seq_cst) - 1);
  return node;
}

TaskNode* Scheduler::scan(int worker) {
  AtomicWorkerCounters& c = counters_[worker];
  // 1. Own deque, newest first.
  TaskNode* node = nullptr;
  {
    std::lock_guard<std::mutex> lk(queues_[worker].mu);
    node = queues_[worker].q.pop_newest();
  }
  if (node != nullptr) {
    c.local_pops.fetch_add(1, std::memory_order_relaxed);
    return take(node);
  }
  // 2. Shared overflow, oldest first.
  {
    std::lock_guard<std::mutex> lk(overflow_mu_);
    node = overflow_.pop_oldest();
  }
  if (node != nullptr) return take(node);
  // 3. Steal cycle over the other deques, nearest victims first; steals
  //    take the victim's oldest (coldest, most independent) work.
  for (const auto& [victim, cls] : victims_[worker]) {
    c.steal_attempts.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(queues_[victim].mu);
      node = queues_[victim].q.pop_oldest();
    }
    if (node != nullptr) {
      record_steal(worker, cls);
      return take(node);
    }
  }
  c.failed_steals.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

TaskNode* Scheduler::acquire(int worker) {
  int spins = 0;
  for (;;) {
    TaskNode* node = scan(worker);
    if (node != nullptr) return node;
    if (queued_.load(std::memory_order_seq_cst) > 0) continue;  // raced with a push
    // Stop only after a failed full scan so destruction drains the queues.
    if (stop_.load(std::memory_order_seq_cst)) return nullptr;
    if (spins < kSpinRounds) {
      for (int i = 0; i < (1 << spins); ++i) std::this_thread::yield();
      ++spins;
      continue;
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lk(sleep_mu_);
      cv_sleep_.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               queued_.load(std::memory_order_seq_cst) > 0;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    spins = 0;
  }
}

/// Each worker's steal cycle visits every other worker exactly once,
/// grouped same-L3 -> same-socket -> cross-socket under the detected (or
/// DNC_TOPOLOGY-overridden) hierarchy, rotated within each class by the
/// thief's id so concurrent thieves fan out over distinct victims. Workers
/// map onto cpus round-robin (worker w -> cpu w % ncpu) -- the runtime does
/// not pin threads, so this is the same static approximation an OS
/// scheduler's initial placement gives; on a flat (undetected) topology
/// every victim classifies as same-L3 and the order degenerates to the
/// classic (w + k) % n ring.
void Scheduler::build_victim_orders() {
  const CpuTopology& topo = cpu_topology();
  const auto cpu = [&](int w) {
    return static_cast<std::size_t>(topo.cpus > 0 ? w % topo.cpus : 0);
  };
  victims_.resize(static_cast<std::size_t>(thread_count_));
  for (int w = 0; w < thread_count_; ++w) {
    auto& order = victims_[static_cast<std::size_t>(w)];
    order.reserve(static_cast<std::size_t>(thread_count_ - 1));
    for (const StealClass cls : {SameL3, SameSocket, CrossSocket}) {
      for (int k = 1; k < thread_count_; ++k) {
        const int v = (w + k) % thread_count_;  // rotation inside the class
        const StealClass vc = topo.l3_of[cpu(v)] == topo.l3_of[cpu(w)]           ? SameL3
                              : topo.socket_of[cpu(v)] == topo.socket_of[cpu(w)] ? SameSocket
                                                                                 : CrossSocket;
        if (vc == cls) order.emplace_back(v, cls);
      }
    }
  }
}

void Scheduler::sample_depth(long d) {
  if (d < 0) d = 0;  // a take can outrun the matching push's count
  int cur = depth_peak_.load(std::memory_order_relaxed);
  while (static_cast<int>(d) > cur &&
         !depth_peak_.compare_exchange_weak(cur, static_cast<int>(d),
                                            std::memory_order_relaxed)) {
  }
  queue_series_.push(now_seconds(), static_cast<int>(d));
}

void Scheduler::record_steal(int worker, StealClass cls) {
  counters_[worker].steals.fetch_add(1, std::memory_order_relaxed);
  counters_[worker].steals_by_class[cls].fetch_add(1, std::memory_order_relaxed);
  const long n = total_steals_.fetch_add(1, std::memory_order_relaxed) + 1;
  steal_series_.push(now_seconds(), static_cast<int>(n));
}

void Scheduler::capture_exception() {
  std::lock_guard<std::mutex> lk(idle_mu_);
  if (!error_) error_ = std::current_exception();
  failed_.store(true, std::memory_order_release);
}

Scheduler* Scheduler::current() { return tls_scheduler; }

const char* Scheduler::interned_kind(WorkerCtx& ctx, int kind) {
  if (kind < 0) return nullptr;
  if (kind >= static_cast<int>(ctx.kind_names.size())) {
    // Extend the worker's cache: graph kinds up to the child base, then the
    // scheduler-side child kinds (registered mid-run by spawn_and_wait).
    std::lock_guard<std::mutex> lk(child_mu_);
    const auto& gk = graph_.kinds();
    const std::size_t base = child_kinds_.empty() ? gk.size() : child_kind_base_;
    while (ctx.kind_names.size() < base && ctx.kind_names.size() < gk.size())
      ctx.kind_names.push_back(obs::profiler::intern(gk[ctx.kind_names.size()].name));
    while (ctx.kind_names.size() < base + child_kinds_.size())
      ctx.kind_names.push_back(
          obs::profiler::intern(child_kinds_[ctx.kind_names.size() - base].name));
  }
  return kind < static_cast<int>(ctx.kind_names.size()) ? ctx.kind_names[kind] : nullptr;
}

KindId Scheduler::child_kind(KindId parent_kind, const char* suffix) {
  std::lock_guard<std::mutex> lk(child_mu_);
  const auto key = std::make_pair(parent_kind, std::string(suffix));
  const auto it = child_kind_ids_.find(key);
  if (it != child_kind_ids_.end()) return it->second;
  if (child_kinds_.empty()) {
    child_kind_base_ = graph_.kinds().size();
  } else {
    // Child ids extend the graph's kind table; a graph that keeps
    // registering kinds after the first child kind would alias them.
    DNC_REQUIRE(graph_.kinds().size() == child_kind_base_,
                "TaskGraph registered kinds after the first child kind");
  }
  const auto& gk = graph_.kinds();
  // The parent may itself be a child kind (two-level nesting): resolve it
  // from whichever table owns the id so "Outer/mid" children become
  // "Outer/mid/leaf".
  const TaskKind* parent = nullptr;
  if (parent_kind >= 0 && parent_kind < static_cast<int>(gk.size())) {
    parent = &gk[parent_kind];
  } else if (const std::size_t ci = static_cast<std::size_t>(parent_kind) - child_kind_base_;
             parent_kind >= 0 && ci < child_kinds_.size()) {
    parent = &child_kinds_[ci];
  }
  TaskKind k;
  if (parent != nullptr) {
    k.name = parent->name + "/" + suffix;
    k.memory_bound = parent->memory_bound;  // children inherit the model
    k.color = parent->color;
  } else {
    k.name = std::string("task/") + suffix;
  }
  const KindId id = static_cast<KindId>(child_kind_base_ + child_kinds_.size());
  child_kinds_.push_back(std::move(k));
  child_kind_ids_.emplace(key, id);
  return id;
}

void Scheduler::spawn_and_wait(const char* suffix, long count,
                               const std::function<void(long)>& body, int priority) {
  if (count <= 0) return;
  WorkerCtx* ctx = tls_ctx;
  if (tls_scheduler != this || ctx == nullptr || ctx->running == nullptr) {
    // Not inside one of this scheduler's tasks: degrade to a sequential
    // loop so library code works with or without a runtime underneath.
    for (long i = 0; i < count; ++i) body(i);
    return;
  }
  // Join counter on the spawner's stack: children decrement it as their
  // very last access, and this frame outlives them because it only returns
  // once the counter hits zero.
  std::atomic<long> pending{count};
  const KindId kind = child_kind(ctx->running->kind, suffix);
  std::vector<TaskNode*> children(static_cast<std::size_t>(count));
  {
    std::lock_guard<std::mutex> lk(child_mu_);
    child_nodes_.reserve(child_nodes_.size() + static_cast<std::size_t>(count));
    for (long i = 0; i < count; ++i) {
      auto node = std::make_unique<TaskNode>();
      node->id = next_child_id_++;
      node->kind = kind;
      node->priority = priority;
      node->is_child = true;
      node->join = &pending;
      node->parent_id = ctx->running->id;
      node->obs_level = ctx->running->obs_level;
      node->obs_size = ctx->running->obs_size;
      node->obs_panel = i;
      node->fn = [&body, i] { body(i); };
      children[static_cast<std::size_t>(i)] = node.get();
      child_nodes_.push_back(std::move(node));
    }
  }
  // Children land on the spawner's own queue (locality); other workers
  // steal them like any ready task, which is what spreads a panel fan-out
  // across the machine.
  for (TaskNode* c : children) enqueue(c, ctx->worker_id);
  // Help-first wait: drain own/stolen work instead of parking the core.
  // Anything acquired here -- a child, or an unrelated ready task -- runs
  // nested inside this task's frame; the frame stack keeps self-time sums
  // exact. Brief yields (escalating to short sleeps) cover the tail where
  // the last children run on other workers.
  int misses = 0;
  while (pending.load(std::memory_order_acquire) > 0) {
    TaskNode* t = scan(ctx->worker_id);
    if (t != nullptr) {
      run_task(t, *ctx);
      misses = 0;
    } else if (++misses < 16) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Some task failed, possibly one of ours: the children's output may be
  // incomplete, so the parent body must not continue.
  if (failed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(idle_mu_);
    if (error_) std::rethrow_exception(error_);
  }
}

void Scheduler::run_task(TaskNode* node, WorkerCtx& ctx) {
  // Open a fresh frame for this task; remember the enclosing one (non-null
  // exactly when we are help-executing inside spawn_and_wait).
  TaskNode* const enclosing = ctx.running;
  const double saved_nested = ctx.frame_nested;
  std::uint64_t saved_hwc[kHwcSlots];
  std::memcpy(saved_hwc, ctx.frame_hwc, sizeof saved_hwc);
  ctx.running = node;
  ctx.frame_nested = 0.0;
  std::memset(ctx.frame_hwc, 0, sizeof ctx.frame_hwc);

  node->worker = ctx.worker_id;
  node->t_start = now_seconds();
  std::uint64_t c0[kHwcSlots], c1[kHwcSlots];
  if (ctx.sampling) ctx.hwc.read(c0);
  if (ctx.preg.active()) ctx.preg.set_task(interned_kind(ctx, node->kind));
  // After a failure the body is skipped but the task still completes, so
  // its successors are released and the graph drains.
  if (node->fn && !failed_.load(std::memory_order_relaxed)) {
    try {
      node->fn();
    } catch (...) {
      capture_exception();
    }
  }
  if (ctx.preg.active())
    ctx.preg.set_task(enclosing ? interned_kind(ctx, enclosing->kind) : nullptr);
  std::uint64_t incl[kHwcSlots] = {0, 0, 0, 0};
  if (ctx.sampling) {
    ctx.hwc.read(c1);
    // Self deltas: helped children already claimed their inclusive share.
    for (int i = 0; i < kHwcSlots; ++i) {
      incl[i] = c1[i] - c0[i];
      node->hwc[i] = incl[i] - ctx.frame_hwc[i];
    }
  }
  node->t_end = now_seconds();
  node->t_nested = ctx.frame_nested;
  if (enclosing == nullptr) {
    // Top-level task: account the idle gap before completion publishes
    // this task, so a trace() after wait_all() sees it. The marks reuse the
    // trace timestamps (no extra clock reads); help-first waiting inside a
    // task is covered by the parent's window, never idle.
    idle_[ctx.worker_id] += node->t_start - ctx.idle_mark;
    ctx.idle_mark = node->t_end;
  }

  // Close the frame: credit this task's inclusive cost to the enclosing
  // frame so *its* self time subtracts us in turn.
  ctx.running = enclosing;
  ctx.frame_nested = saved_nested;
  std::memcpy(ctx.frame_hwc, saved_hwc, sizeof saved_hwc);
  if (enclosing != nullptr) {
    ctx.frame_nested += node->t_end - node->t_start;
    if (ctx.sampling)
      for (int i = 0; i < kHwcSlots; ++i) ctx.frame_hwc[i] += incl[i];
  }

  counters_[ctx.worker_id].executed.fetch_add(1, std::memory_order_relaxed);
  if (node->is_child) {
    // Child subtask: wake the spawner's join instead of the graph. The
    // fetch_sub is the last access to the counter -- it lives on the
    // spawner's stack, which survives until pending reaches zero.
    node->join->fetch_sub(1, std::memory_order_acq_rel);
  } else {
    const std::vector<TaskNode*> newly_ready = graph_.complete(node);
    // Successors enter inflight_ before this task leaves it, so inflight_
    // never dips to zero while work remains.
    for (TaskNode* r : newly_ready) enqueue(r, ctx.worker_id);
  }
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(idle_mu_);  // notify under the waiter's mutex
    cv_idle_.notify_all();
  }
}

void Scheduler::worker_loop(int worker_id) {
  tls_worker_id = worker_id;
  WorkerCtx ctx(worker_id, graph_);
  if (ctx.sampling) hwc_active_.store(true, std::memory_order_relaxed);
  tls_scheduler = this;
  tls_ctx = &ctx;
  while (TaskNode* node = acquire(worker_id)) run_task(node, ctx);
  tls_scheduler = nullptr;
  tls_ctx = nullptr;
}

void Scheduler::wait_all() {
  std::unique_lock<std::mutex> lk(idle_mu_);
  cv_idle_.wait(lk, [&] { return inflight_.load(std::memory_order_acquire) == 0; });
  if (!error_) return;
  // Quiescent: no task can raise a new error until the caller submits again.
  std::exception_ptr e = std::exchange(error_, nullptr);
  failed_.store(false, std::memory_order_relaxed);
  lk.unlock();
  std::rethrow_exception(e);
}

Trace Scheduler::trace() const {
  Trace t;
  t.workers = threads();
  t.sched_policy = sched_policy_name(default_sched_policy());
  const bool hwc = hwc_active_.load(std::memory_order_relaxed);
  const auto to_event = [hwc](const TaskNode& node) {
    TraceEvent e{node.id,       node.kind,     node.worker,    node.t_start,
                 node.t_end,    node.t_ready,  node.obs_level, node.obs_size,
                 node.obs_panel, node.priority};
    if (hwc)
      for (int i = 0; i < kHwcSlots; ++i) e.hwc[i] = node.hwc[i];
    e.nested = node.t_nested;
    if (node.is_child) e.parent = static_cast<long long>(node.parent_id);
    return e;
  };
  for (const auto& node : graph_.nodes()) {
    t.events.push_back(to_event(*node));
    for (std::uint64_t p : node->pred_ids) t.edges.emplace_back(p, node->id);
  }
  if (hwc) {
    const obs::HwcBackend b = obs::hwc_active_backend();
    t.hwc_backend = obs::hwc_backend_name(b);
    for (int i = 0; i < kHwcSlots; ++i) t.hwc_slot_names.push_back(obs::hwc_slot_name(b, i));
  }
  for (const TaskKind& k : graph_.kinds()) {
    t.kind_names.push_back(k.name);
    t.kind_memory_bound.push_back(k.memory_bound ? 1 : 0);
  }
  {
    // Child subtasks and their kinds, appended after the graph's. No edges:
    // the parent link rides on the event itself.
    std::lock_guard<std::mutex> lk(child_mu_);
    for (const auto& node : child_nodes_) t.events.push_back(to_event(*node));
    for (const TaskKind& k : child_kinds_) {
      t.kind_names.push_back(k.name);
      t.kind_memory_bound.push_back(k.memory_bound ? 1 : 0);
    }
  }
  t.worker_idle = idle_;
  t.queue_samples = queue_series_.snapshot();
  t.steal_samples = steal_series_.snapshot();
  t.queue_depth_peak = depth_peak_.load(std::memory_order_relaxed);
  t.sched_counters.resize(threads());
  for (int w = 0; w < threads(); ++w) {
    const AtomicWorkerCounters& c = counters_[w];
    WorkerSchedCounters& out = t.sched_counters[w];
    out.executed = c.executed.load(std::memory_order_relaxed);
    out.local_pops = c.local_pops.load(std::memory_order_relaxed);
    out.steals = c.steals.load(std::memory_order_relaxed);
    out.steal_attempts = c.steal_attempts.load(std::memory_order_relaxed);
    out.failed_steals = c.failed_steals.load(std::memory_order_relaxed);
    out.placed = c.placed.load(std::memory_order_relaxed);
    out.steals_same_l3 = c.steals_by_class[SameL3].load(std::memory_order_relaxed);
    out.steals_same_socket = c.steals_by_class[SameSocket].load(std::memory_order_relaxed);
    out.steals_cross_socket = c.steals_by_class[CrossSocket].load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace dnc::rt

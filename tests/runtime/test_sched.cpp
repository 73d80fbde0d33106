// Unit tests of the scheduler building blocks: the priority deque, the
// self-decimating sample series, the policy name, the per-worker counters
// surfaced through the trace, and task exceptions reaching the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/sched.hpp"
#include "runtime/scheduler.hpp"

namespace dnc::rt {
namespace {

std::vector<TaskNode> make_nodes(const std::vector<int>& prios) {
  std::vector<TaskNode> nodes(prios.size());
  for (std::size_t i = 0; i < prios.size(); ++i) {
    nodes[i].id = i;
    nodes[i].priority = prios[i];
  }
  return nodes;
}

TEST(PrioDeque, PopsHighestPriorityFirst) {
  auto nodes = make_nodes({0, 5, 3, 5, 63, 1});
  PrioDeque q;
  for (auto& n : nodes) q.push(&n);
  EXPECT_EQ(q.size(), 6u);
  std::vector<int> got;
  while (!q.empty()) got.push_back(q.pop_oldest()->priority);
  const std::vector<int> want{63, 5, 5, 3, 1, 0};
  EXPECT_EQ(got, want);
}

TEST(PrioDeque, FifoVsLifoWithinBucket) {
  auto nodes = make_nodes({2, 2, 2});
  {
    PrioDeque q;
    for (auto& n : nodes) q.push(&n);
    // Thief side: oldest first.
    EXPECT_EQ(q.pop_oldest()->id, 0u);
    EXPECT_EQ(q.pop_oldest()->id, 1u);
    EXPECT_EQ(q.pop_oldest()->id, 2u);
  }
  {
    PrioDeque q;
    for (auto& n : nodes) q.push(&n);
    // Owner side: newest first (cache-warm LIFO).
    EXPECT_EQ(q.pop_newest()->id, 2u);
    EXPECT_EQ(q.pop_newest()->id, 1u);
    EXPECT_EQ(q.pop_newest()->id, 0u);
  }
}

TEST(PrioDeque, ClampsOutOfRangePriorities) {
  auto nodes = make_nodes({-7, 200, 10});
  PrioDeque q;
  for (auto& n : nodes) q.push(&n);
  EXPECT_EQ(q.pop_oldest()->priority, 200);  // clamped into bucket 63: still first
  EXPECT_EQ(q.pop_oldest()->priority, 10);
  EXPECT_EQ(q.pop_oldest()->priority, -7);  // bucket 0: last
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop_oldest(), nullptr);
  EXPECT_EQ(q.pop_newest(), nullptr);
}

TEST(SampledSeries, KeepsEverySampleBelowCap) {
  SampledSeries s(64);
  for (int i = 0; i < 50; ++i) s.push(i * 1.0, i);
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.size(), 50u);
  EXPECT_EQ(s.stride(), 1ull);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(snap[i].depth, i);
}

TEST(SampledSeries, DecimatesAtCapAndStaysBounded) {
  constexpr std::size_t kCap = 64;
  SampledSeries s(kCap);
  for (int i = 0; i < 100000; ++i) s.push(i * 1.0, i);
  const auto snap = s.snapshot();
  EXPECT_LE(snap.size(), kCap);
  EXPECT_GE(snap.size(), kCap / 4);  // decimation halves, never empties
  EXPECT_GT(s.stride(), 1ull);
  // Retained samples stay time-ordered and spread over the whole run.
  for (std::size_t i = 1; i < snap.size(); ++i) EXPECT_LT(snap[i - 1].t, snap[i].t);
  EXPECT_GT(snap.back().t, 50000.0);
}

TEST(SchedPolicyParse, NamesRoundTrip) {
  // The one policy's name is what traces, reports and bench metadata stamp.
  EXPECT_EQ(default_sched_policy(), SchedPolicy::Steal);
  EXPECT_STREQ(sched_policy_name(default_sched_policy()), "steal");
  TaskGraph g;
  Runtime rt(g, 1);
  rt.wait_all();
  EXPECT_EQ(rt.trace().sched_policy, sched_policy_name(SchedPolicy::Steal));
}

TEST(SchedCounters, StealPolicyAccountsEveryTask) {
  for (const int threads : {3, 4}) {
    TaskGraph g;
    Runtime rt(g, threads);
    Handle h;
    for (int i = 0; i < 2000; ++i)
      g.submit(0, [] {}, {{&h, Access::GatherV}});
    rt.wait_all();
    const Trace tr = rt.trace();
    EXPECT_EQ(tr.sched_policy, std::string("steal"));
    ASSERT_EQ(tr.sched_counters.size(), static_cast<std::size_t>(threads));
    long executed = 0, local = 0, steals = 0, attempts = 0, placed = 0;
    for (const auto& c : tr.sched_counters) {
      executed += c.executed;
      local += c.local_pops;
      steals += c.steals;
      attempts += c.steal_attempts;
      placed += c.placed;
    }
    EXPECT_EQ(executed, 2000);
    // Every execution came off a deque: the owner's (local pop), another
    // worker's (steal), or the bounded-capacity overflow queue.
    EXPECT_LE(local + steals, executed);
    EXPECT_GE(local + steals, 1);
    EXPECT_LE(steals, attempts);
    // Submitter-side round-robin placement covered all deques.
    EXPECT_EQ(placed, 2000);
    for (const auto& c : tr.sched_counters) EXPECT_GT(c.placed, 0);
    EXPECT_GE(tr.queue_depth_peak, 1);
  }
}

TEST(SchedCounters, QueueDepthPeakIsExactDespiteDecimation) {
  // Submit a wide fan (all ready at once) against one slow worker: the
  // peak must reflect the true backlog even if sampling decimated.
  TaskGraph g;
  Runtime rt(g, 1);
  Handle gate;
  std::atomic<bool> release{false};
  g.submit(0, [&] { while (!release.load()) std::this_thread::yield(); },
           {{&gate, Access::Out}});
  for (int i = 0; i < 300; ++i)
    g.submit(0, [] {}, {{&gate, Access::GatherV}});
  release = true;
  rt.wait_all();
  const Trace tr = rt.trace();
  EXPECT_GE(tr.queue_depth_peak, 300);
}

TEST(SchedErrors, GraphTaskExceptionReachesWaitAll) {
  // A throwing task in the middle of a chain: the first exception reaches
  // wait_all() on this thread, later bodies are skipped, and every task
  // still completes so the graph drains and the runtime stays usable.
  for (const int threads : {1, 4}) {
    TaskGraph g;
    Runtime rt(g, threads);
    Handle chain;
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i) {
      g.submit(0,
               [&ran, i] {
                 ran.fetch_add(1);
                 if (i == 50) throw std::runtime_error("task 50 failed");
               },
               {{&chain, Access::InOut}});
    }
    try {
      rt.wait_all();
      ADD_FAILURE() << "wait_all did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 50 failed");
    }
    EXPECT_EQ(ran.load(), 51) << threads << " threads";
    long executed = 0;
    for (const auto& c : rt.trace().sched_counters) executed += c.executed;
    EXPECT_EQ(executed, 200);

    // The error was consumed: the next batch runs normally.
    for (int i = 0; i < 20; ++i)
      g.submit(0, [&ran] { ran.fetch_add(1); }, {{&chain, Access::InOut}});
    EXPECT_NO_THROW(rt.wait_all());
    EXPECT_EQ(ran.load(), 71);
  }
}

TEST(SchedErrors, ThrowingChildReachesParentAndCaller) {
  TaskGraph g;
  const KindId kind = g.register_kind("Work");
  Runtime rt(g, 4);
  Handle h;
  std::atomic<int> parent_saw{0}, after_join{0}, children{0};
  for (int p = 0; p < 4; ++p) {
    g.submit(kind,
             [&, p] {
               try {
                 spawn_and_wait("panel", 16, [&, p](long c) {
                   children.fetch_add(1);
                   if (p == 1 && c == 5) throw std::logic_error("child failed");
                 });
               } catch (const std::logic_error&) {
                 parent_saw.fetch_add(1);
                 throw;
               }
               after_join.fetch_add(1);  // never reached once a child failed
             },
             {{&h, Access::InOut}});
  }
  EXPECT_THROW(rt.wait_all(), std::logic_error);
  // Parent 0 finished before the failure; parent 1 saw its child's
  // exception; parents 2 and 3 were skipped.
  EXPECT_EQ(after_join.load(), 1);
  EXPECT_EQ(parent_saw.load(), 1);
  EXPECT_LE(children.load(), 32);
}

}  // namespace
}  // namespace dnc::rt

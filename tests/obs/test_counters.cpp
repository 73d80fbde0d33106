#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"

namespace dnc::obs {
namespace {

TEST(Counters, DeltaSinceIsolatesAWindow) {
  const CounterArray before = snapshot();
  bump(kGemmCalls, 3);
  bump(kSturmSteps, 100);
  const CounterArray d = delta_since(before);
  EXPECT_EQ(d[kGemmCalls], 3u);
  EXPECT_EQ(d[kSturmSteps], 100u);
  EXPECT_EQ(d[kBisectLdlCalls], 0u);
}

TEST(Counters, Laed4Bucketing) {
  const CounterArray before = snapshot();
  const int iters[] = {0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 50};
  for (int it : iters) bump_laed4(it);
  const CounterArray d = delta_since(before);
  EXPECT_EQ(d[kLaed4Calls], 11u);
  EXPECT_EQ(d[kLaed4Iterations], 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 9 + 10 + 50);
  EXPECT_EQ(d[kLaed4Hist0], 1u);
  EXPECT_EQ(d[kLaed4Hist1], 1u);
  EXPECT_EQ(d[kLaed4Hist2], 1u);
  EXPECT_EQ(d[kLaed4Hist3], 1u);
  EXPECT_EQ(d[kLaed4Hist4], 1u);
  EXPECT_EQ(d[kLaed4Hist5to6], 2u);
  EXPECT_EQ(d[kLaed4Hist7to9], 2u);
  EXPECT_EQ(d[kLaed4Hist10plus], 2u);
  // Histogram always sums to the call count.
  std::uint64_t hist = 0;
  for (int b = 0; b < kLaed4HistBuckets; ++b) hist += d[kLaed4HistFirst + b];
  EXPECT_EQ(hist, d[kLaed4Calls]);
}

TEST(Counters, SurvivesThreadExit) {
  // Counts bumped by a thread that has already joined (and whose
  // thread_local block was destroyed) must still be visible: the registry
  // keeps every block alive via shared_ptr.
  const CounterArray before = snapshot();
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.emplace_back([] {
      for (int j = 0; j < 1000; ++j) bump(kGemmFlops, 2);
    });
  for (auto& t : ts) t.join();
  const CounterArray d = delta_since(before);
  EXPECT_EQ(d[kGemmFlops], 4u * 1000u * 2u);
}

TEST(Counters, SurvivesStealWorkerThreadExit) {
  // Same guarantee as SurvivesThreadExit, but for the threads that matter in
  // production: work-stealing scheduler workers. Counts bumped inside tasks
  // must remain visible after the Runtime has joined its workers (and their
  // thread_local blocks were destroyed).
  const CounterArray before = snapshot();
  {
    rt::TaskGraph g;
    rt::Runtime run(g, 4);
    rt::Handle h;
    for (int i = 0; i < 64; ++i)
      g.submit(0,
               [] {
                 bump(kGemmCalls, 1);
                 bump(kGemmFlops, 128);
               },
               {{&h, rt::Access::GatherV}});
    run.wait_all();
  }  // ~Runtime joins the workers here
  const CounterArray d = delta_since(before);
  EXPECT_EQ(d[kGemmCalls], 64u);
  EXPECT_EQ(d[kGemmFlops], 64u * 128u);
}

TEST(Counters, NamesAreStableSnakeCase) {
  EXPECT_STREQ(counter_name(kLaed4Calls), "laed4_calls");
  EXPECT_STREQ(counter_name(kLaed4Hist10plus), "laed4_hist_10_plus");
  EXPECT_STREQ(counter_name(kGemmPackedBytes), "gemm_packed_bytes");
  for (int c = 0; c < kNumCounters; ++c) EXPECT_STRNE(counter_name(c), "unknown");
  EXPECT_STREQ(counter_name(kNumCounters), "unknown");
}

}  // namespace
}  // namespace dnc::obs

// Concurrency stress for the metrics registry, run under ThreadSanitizer by
// the `runtime`-labeled CI job: many writer threads hammer counters and
// histograms (racing first-touch shard registration and lazy bucket-array
// allocation) while scraper threads merge the shards and registrars add new
// series. The assertions only check that nothing is lost -- the point of
// the test is that TSan sees no data race in the single-writer shard idiom.
// Another case scrapes while real taskflow solves record their telemetry.
//
// Deliberately absent: the sampling profiler. Its SIGPROF timers are
// covered by tests/obs (not built with TSan); mixing asynchronous signals
// into the TSan run would test the sanitizer's signal handling, not ours.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/metrics.hpp"

namespace dnc {
namespace {

namespace m = obs::metrics;

class MetricsStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("DNC_METRICS");
    had_env_ = old != nullptr;
    old_env_ = old ? old : "";
    ::setenv("DNC_METRICS", "1", 1);
    m::reset_for_tests();
  }
  void TearDown() override {
    if (had_env_)
      ::setenv("DNC_METRICS", old_env_.c_str(), 1);
    else
      ::unsetenv("DNC_METRICS");
    m::reset_for_tests();
  }

  bool had_env_ = false;
  std::string old_env_;
};

TEST_F(MetricsStressTest, ConcurrentWritersScrapersAndRegistrars) {
  constexpr int kWriters = 8, kIters = 4000;
  m::Id c = m::register_metric(m::Kind::Counter, "stress_total", "", "t");
  m::Id h = m::register_metric(m::Kind::Histogram, "stress_hist", "", "t");
  m::Id g = m::register_metric(m::Kind::Gauge, "stress_gauge", "", "t");
  ASSERT_TRUE(c.valid());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        m::add(c);
        m::observe(h, 1e-4 * (1 + ((w * kIters + i) % 1000)));
        if (i % 64 == 0) m::set_gauge(g, static_cast<double>(i));
      }
    });
  // Two scrapers merge continuously while the writers write.
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s)
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        m::Snapshot snap = m::scrape();
        EXPECT_GE(snap.metrics.size(), 3u);
        (void)m::prometheus_text(snap);
      }
    });
  // A registrar keeps adding fresh series, racing the index map's lock.
  std::thread registrar([&] {
    for (int i = 0; i < 200; ++i) {
      std::string labels = "shard=\"" + std::to_string(i % 16) + "\"";
      m::add(m::register_metric(m::Kind::Counter, "stress_dyn_total", labels, "t"));
    }
  });

  for (auto& t : threads) t.join();
  registrar.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : scrapers) t.join();

  // Writers are done: the final scrape must account for every recording.
  m::Snapshot snap = m::scrape();
  ASSERT_GE(snap.metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, kWriters * kIters);
  EXPECT_EQ(snap.metrics[1].count, static_cast<std::uint64_t>(kWriters * kIters));
  std::uint64_t in_buckets = 0;
  for (const auto& [idx, cnt] : snap.metrics[1].buckets) in_buckets += cnt;
  EXPECT_EQ(in_buckets, snap.metrics[1].count);
  double dyn_total = 0;
  for (const auto& ms : snap.metrics)
    if (ms.name == "stress_dyn_total") dyn_total += ms.value;
  EXPECT_DOUBLE_EQ(dyn_total, 200.0);
}

TEST_F(MetricsStressTest, ShardsSurviveThreadExit) {
  m::Id c = m::register_metric(m::Kind::Counter, "exit_total", "", "t");
  for (int round = 0; round < 16; ++round) {
    std::thread t([&] { m::add(c, 1.0); });
    t.join();
    // Scrape between thread lifetimes: exited threads' shards must still
    // contribute (the registry holds them via shared_ptr).
    EXPECT_DOUBLE_EQ(m::scrape().metrics[0].value, round + 1.0);
  }
}

// Scraper threads render the registry in both export formats while
// multi-threaded taskflow solves keep the per-solve writers hot. Every
// scrape must be non-empty and its JSON form must parse back -- a torn
// snapshot or a data race is the failure mode this guards against.
TEST_F(MetricsStressTest, ConcurrentScrapesDuringSolves) {
  matgen::Tridiag t = matgen::table3_matrix(4, 512);
  dc::Options opt;
  opt.threads = 4;
  const auto solve = [&] {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::stedc_taskflow(t.n(), d.data(), e.data(), v, opt, nullptr);
  };
  // One synchronous solve first, so even the first scrape sees solve metrics.
  solve();

  std::atomic<bool> solving{true};
  std::thread solver([&] {
    while (solving.load()) solve();
  });
  std::atomic<int> bad_scrapes{0};
  std::vector<std::string> last_json(3);
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&, s] {
      for (int i = 0; i < 12; ++i) {
        const m::Snapshot snap = m::scrape();
        const std::string text = (s + i) % 2 ? m::prometheus_text(snap) : m::json_text(snap);
        if (snap.metrics.empty() || text.empty()) bad_scrapes.fetch_add(1);
        if ((s + i) % 2 == 0) last_json[s] = text;
      }
    });
  }
  for (auto& th : scrapers) th.join();
  solving.store(false);
  solver.join();

  EXPECT_EQ(bad_scrapes.load(), 0);
  for (const std::string& json : last_json) {
    m::Snapshot snap;
    std::string err;
    EXPECT_TRUE(m::parse_snapshot(json, snap, &err)) << err;
    EXPECT_FALSE(snap.metrics.empty());
  }
}

}  // namespace
}  // namespace dnc

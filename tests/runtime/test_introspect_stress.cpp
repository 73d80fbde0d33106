// Concurrency stress for the live introspection endpoint, run under the
// `runtime` label so CI exercises it with ThreadSanitizer: scraper threads
// hammer /metrics, /varz and /healthz over real sockets while taskflow
// solves keep the metrics writers hot.
// Every response must be 200 with a well-formed body -- a torn scrape or a
// data race is the failure mode this guards against.
//
// Deliberately absent: the sampling profiler. Its SIGPROF timers are
// covered by tests/obs (not built with TSan); mixing asynchronous signals
// into the TSan run would test the sanitizer's signal handling, not ours.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/httpd.hpp"
#include "obs/metrics.hpp"

namespace dnc {
namespace {

namespace hd = obs::httpd;
namespace m = obs::metrics;

TEST(IntrospectStress, ConcurrentScrapesDuringSolves) {
  const char* old_metrics = std::getenv("DNC_METRICS");
  const std::string saved = old_metrics ? old_metrics : "";
  ::setenv("DNC_METRICS", "1", 1);
  m::reset_for_tests();
  hd::stop_for_tests();
  ASSERT_TRUE(hd::start("127.0.0.1", 0));
  const std::uint16_t port = hd::bound_port();
  ASSERT_GT(port, 0);

  std::atomic<bool> solving{true};
  std::atomic<int> bad_responses{0};
  std::string last_varz;
  std::mutex varz_mu;

  // Seed the registry with one synchronous solve so even the very first
  // scrape sees a non-empty snapshot; the background solves then keep the
  // writers hot while the scrapers run.
  matgen::Tridiag seed = matgen::table3_matrix(4, 512);
  {
    std::vector<double> d = seed.d, e = seed.e;
    Matrix v;
    dc::Options opt;
    opt.threads = 4;
    dc::stedc_taskflow(seed.n(), d.data(), e.data(), v, opt, nullptr);
  }

  const char* targets[] = {"/metrics", "/varz", "/healthz"};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&, s] {
      for (int i = 0; i < 12; ++i) {
        int status = 0;
        std::string body, err;
        if (!hd::http_get("127.0.0.1", port, targets[(s + i) % 3], status, body, &err) ||
            status != 200 || body.empty()) {
          bad_responses.fetch_add(1);
          continue;
        }
        if (std::string(targets[(s + i) % 3]) == "/varz") {
          std::lock_guard<std::mutex> lk(varz_mu);
          last_varz = body;
        }
      }
    });
  }

  // Writers: repeated multi-threaded solves record metrics + telemetry the
  // whole time the scrapers run.
  std::thread solver([&] {
    matgen::Tridiag t = matgen::table3_matrix(4, 512);
    dc::Options opt;
    opt.threads = 4;
    while (solving.load()) {
      std::vector<double> d = t.d, e = t.e;
      Matrix v;
      dc::stedc_taskflow(t.n(), d.data(), e.data(), v, opt, nullptr);
    }
  });

  for (auto& th : scrapers) th.join();
  solving.store(false);
  solver.join();

  EXPECT_EQ(bad_responses.load(), 0);
  // The last /varz scraped mid-run must be parseable dnc-metrics-v1 JSON.
  ASSERT_FALSE(last_varz.empty());
  m::Snapshot snap;
  std::string err;
  EXPECT_TRUE(m::parse_snapshot(last_varz, snap, &err)) << err;
  EXPECT_FALSE(snap.metrics.empty());

  hd::stop_for_tests();
  if (!saved.empty())
    ::setenv("DNC_METRICS", saved.c_str(), 1);
  else
    ::unsetenv("DNC_METRICS");
  m::reset_for_tests();
}

}  // namespace
}  // namespace dnc

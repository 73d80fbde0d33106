// Sampling-profiler tests: the zero-cost gate, interning, folded-stack
// export of a profiled taskflow solve (worker + task-kind attribution and a
// sample count consistent with CPU time x HZ), and thread registration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/profiler.hpp"

namespace dnc {
namespace {

namespace prof = obs::profiler;

class ProfilerTest : public ::testing::Test {
 protected:
  static constexpr const char* kVars[] = {"DNC_PROFILE_HZ", "DNC_PROFILE", "DNC_METRICS"};
  void SetUp() override {
    for (const char* var : kVars) {
      const char* v = std::getenv(var);
      saved_.emplace_back(var, v ? std::string(v) : std::string());
      saved_set_.push_back(v != nullptr);
      ::unsetenv(var);
    }
    prof::reset_for_tests();
  }
  void TearDown() override {
    prof::reset_for_tests();
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (saved_set_[i])
        ::setenv(saved_[i].first, saved_[i].second.c_str(), 1);
      else
        ::unsetenv(saved_[i].first);
    }
    prof::refresh_from_env();
  }

  /// Starts an explicit session, which also makes threads created from now
  /// on register. Avoids DNC_PROFILE_HZ so continuous mode (background
  /// drainer + atexit dump) never boots inside the test binary.
  void start_session(int hz) {
    ASSERT_TRUE(prof::start(hz));
    ASSERT_TRUE(prof::registration_wanted());
  }

  std::vector<std::pair<const char*, std::string>> saved_;
  std::vector<bool> saved_set_;
};

TEST_F(ProfilerTest, ZeroCostWhenOff) {
  EXPECT_FALSE(prof::env_enabled());
  EXPECT_FALSE(prof::registration_wanted());
  prof::ThreadRegistration reg("worker", 0);
  EXPECT_FALSE(reg.active());
  EXPECT_EQ(prof::registered_threads(), 0u);
  reg.set_task("ignored");  // must be a harmless no-op
}

TEST_F(ProfilerTest, EnvParsing) {
  ::setenv("DNC_PROFILE_HZ", "on", 1);
  prof::refresh_from_env();
  EXPECT_TRUE(prof::env_enabled());
  EXPECT_EQ(prof::env_hz(), prof::kDefaultHz);
  ::setenv("DNC_PROFILE_HZ", "250", 1);
  prof::refresh_from_env();
  EXPECT_EQ(prof::env_hz(), 250);
  ::setenv("DNC_PROFILE_HZ", "off", 1);
  prof::refresh_from_env();
  EXPECT_FALSE(prof::env_enabled());
}

TEST_F(ProfilerTest, InternIsStable) {
  const char* a = prof::intern("UpdateVect");
  const char* b = prof::intern("UpdateVect");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "UpdateVect");
  EXPECT_NE(prof::intern("LAED4"), a);
}

// Sample counts track CPU time x HZ. A registered spin thread burns CPU
// and reports its own CLOCK_THREAD_CPUTIME_ID consumption, so the bounds
// hold even when the test box is oversubscribed and the thread gets far
// less than a full core (judging against wall time flakes under parallel
// ctest on small machines). Wide bounds absorb kernel-tick quantisation
// of CPU-time timers.
TEST_F(ProfilerTest, SampleCountTracksCpuTimeTimesHz) {
  const int hz = 97;
  start_session(hz);
  std::atomic<bool> stop{false};
  std::atomic<double> cpu_seconds{0.0};
  std::thread busy([&] {
    prof::ThreadRegistration reg("pool", 1);
    volatile double x = 1.0;
    while (!stop.load(std::memory_order_relaxed)) x = x * 1.0000001 + 1e-9;
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    cpu_seconds.store(ts.tv_sec + ts.tv_nsec * 1e-9);
  });
  while (prof::registered_threads() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  prof::stop();
  stop.store(true);
  busy.join();
  const double cpu = cpu_seconds.load();
  const prof::Totals totals = prof::totals();
  EXPECT_GE(totals.samples, static_cast<std::uint64_t>(hz * cpu * 0.25)) << cpu;
  EXPECT_LE(totals.samples, static_cast<std::uint64_t>(hz * cpu * 4 + 16)) << cpu;
  EXPECT_EQ(totals.dropped, 0u);
}

// The ISSUE acceptance test: a profiled n>=512 taskflow solve yields folded
// stacks containing a known solver frame, attributed to scheduler workers
// and task kinds.
TEST_F(ProfilerTest, ProfiledTaskflowSolveAttributesWorkAndKinds) {
  const int hz = 997;  // fast sampling keeps the solve count low
  start_session(hz);
  const auto t0 = std::chrono::steady_clock::now();
  matgen::Tridiag t = matgen::table3_matrix(4, 1024);
  dc::Options opt;
  opt.threads = 4;
  double wall = 0.0;
  // Solve until samples accumulate; CPU-time timers fire only while the
  // workers are busy, so slow machines just take more wall time.
  do {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::SolveStats st;
    dc::stedc_taskflow(t.n(), d.data(), e.data(), v, opt, &st);
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  } while (prof::totals().samples < 8 && wall < 20.0);
  prof::stop();

  const prof::Totals totals = prof::totals();
  EXPECT_GE(totals.samples, 8u) << wall;
  // Upper bound: at most threads x wall CPU-seconds were available.
  EXPECT_LE(totals.samples,
            static_cast<std::uint64_t>(hz * wall * (opt.threads + 1) * 2 + 64))
      << wall;

  const std::string folded = prof::folded_text();
  EXPECT_NE(folded.find("# dnc profile"), std::string::npos);
  EXPECT_NE(folded.find("worker:"), std::string::npos) << folded.substr(0, 500);
  EXPECT_NE(folded.find("task:"), std::string::npos) << folded.substr(0, 500);
  // A known solver frame must symbolize: every sampled worker stack passes
  // through the scheduler's worker loop.
  EXPECT_NE(folded.find("worker_loop"), std::string::npos) << folded.substr(0, 500);

  // The Perfetto merge view renders the same aggregate.
  const std::string json = prof::perfetto_samples_json();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("\"stack\""), std::string::npos);
}

TEST_F(ProfilerTest, RegistrationLifecycle) {
  start_session(prof::kDefaultHz);
  {
    prof::ThreadRegistration reg("worker", 3);
    EXPECT_TRUE(reg.active());
    EXPECT_EQ(prof::registered_threads(), 1u);
  }
  EXPECT_EQ(prof::registered_threads(), 0u);
}

}  // namespace
}  // namespace dnc

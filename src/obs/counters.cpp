#include "obs/counters.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace dnc::obs {
namespace {

struct Block {
  std::atomic<std::uint64_t> v[kNumCounters] = {};
};

// The registry owns a shared_ptr to every block ever created, so counters
// bumped by runtime workers survive the workers' exit and are still summed
// by a later snapshot() from the master thread.
std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}

std::vector<std::shared_ptr<Block>>& registry() {
  static std::vector<std::shared_ptr<Block>> blocks;
  return blocks;
}

Block* tls_block() {
  thread_local std::shared_ptr<Block> block = [] {
    auto b = std::make_shared<Block>();
    std::lock_guard<std::mutex> lk(registry_mu());
    registry().push_back(b);
    return b;
  }();
  return block.get();
}

// Single-writer relaxed update: cheaper than fetch_add and exactly as
// correct, since only the owning thread writes its block.
inline void add(Block* b, int c, std::uint64_t delta) noexcept {
  b->v[c].store(b->v[c].load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

}  // namespace

const char* counter_name(int c) noexcept {
  switch (c) {
    case kLaed4Calls: return "laed4_calls";
    case kLaed4Iterations: return "laed4_iterations";
    case kLaed4Hist0: return "laed4_hist_0";
    case kLaed4Hist1: return "laed4_hist_1";
    case kLaed4Hist2: return "laed4_hist_2";
    case kLaed4Hist3: return "laed4_hist_3";
    case kLaed4Hist4: return "laed4_hist_4";
    case kLaed4Hist5to6: return "laed4_hist_5_6";
    case kLaed4Hist7to9: return "laed4_hist_7_9";
    case kLaed4Hist10plus: return "laed4_hist_10_plus";
    case kSturmCalls: return "sturm_calls";
    case kSturmSteps: return "sturm_steps";
    case kBisectLdlCalls: return "bisect_ldl_calls";
    case kBisectLdlSteps: return "bisect_ldl_steps";
    case kDqdsSweeps: return "dqds_sweeps";
    case kGemmCalls: return "gemm_calls";
    case kGemmFlops: return "gemm_flops";
    case kGemmPackedBytes: return "gemm_packed_bytes";
  }
  return "unknown";
}

void bump(Counter c, std::uint64_t delta) noexcept { add(tls_block(), c, delta); }

void bump_laed4(int iterations) noexcept {
  Block* b = tls_block();
  add(b, kLaed4Calls, 1);
  add(b, kLaed4Iterations, static_cast<std::uint64_t>(iterations < 0 ? 0 : iterations));
  int bucket;
  if (iterations <= 0)
    bucket = 0;
  else if (iterations <= 4)
    bucket = iterations;
  else if (iterations <= 6)
    bucket = 5;
  else if (iterations <= 9)
    bucket = 6;
  else
    bucket = 7;
  add(b, kLaed4HistFirst + bucket, 1);
}

CounterArray snapshot() noexcept {
  CounterArray out{};
  std::lock_guard<std::mutex> lk(registry_mu());
  for (const auto& b : registry())
    for (int c = 0; c < kNumCounters; ++c)
      out[c] += b->v[c].load(std::memory_order_relaxed);
  return out;
}

CounterArray delta_since(const CounterArray& begin) noexcept {
  CounterArray now = snapshot();
  for (int c = 0; c < kNumCounters; ++c) now[c] = now[c] >= begin[c] ? now[c] - begin[c] : 0;
  return now;
}

}  // namespace dnc::obs

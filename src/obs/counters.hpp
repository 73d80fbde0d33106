// Algorithmic counters: the low-overhead half of the observability layer.
//
// Hot kernels (laed4, sturm_count, gemm, bisect_ldl, dqds) bump thread-local
// counter blocks -- no locks, no shared cache lines on the hot path; a
// mutex is taken only once per thread (registration) and on snapshot().
// Drivers capture a snapshot at solve start and diff it at solve end
// (obs::SolveScope), so concurrent unrelated work in the same process is
// the caller's problem, not the counters'.
//
// The blocks are atomics written with relaxed single-writer updates; reader
// visibility is established by the thread joins / condition-variable
// handshakes that already order "solve finished" after "kernel ran".
#pragma once

#include <array>
#include <cstdint>

namespace dnc::obs {

enum Counter : int {
  // laed4 secular solver: one bump per root, histogram over the
  // safeguarded-iteration count (0 = closed form, k <= 2).
  kLaed4Calls = 0,
  kLaed4Iterations,  ///< summed iteration count over all calls
  kLaed4Hist0,       ///< closed-form roots (k <= 2)
  kLaed4Hist1,
  kLaed4Hist2,
  kLaed4Hist3,
  kLaed4Hist4,
  kLaed4Hist5to6,
  kLaed4Hist7to9,
  kLaed4Hist10plus,
  // Sturm-count bisection (lapack/bisect.cpp).
  kSturmCalls,  ///< sturm_count invocations
  kSturmSteps,  ///< pivot recurrence steps (n per invocation)
  // LDL^T bisection of the MRRR representation tree.
  kBisectLdlCalls,
  kBisectLdlSteps,  ///< interval halvings
  // dqds root eigenvalues of the MRRR representation tree (mrrr/dqds.cpp).
  kDqdsSweeps,  ///< completed shifted sweeps
  // GEMM (blas/gemm.cpp).
  kGemmCalls,
  kGemmFlops,        ///< 2*m*n*k per call
  kGemmPackedBytes,  ///< bytes staged through the packing buffers
  kNumCounters,
};

inline constexpr int kLaed4HistBuckets = 8;
inline constexpr int kLaed4HistFirst = kLaed4Hist0;

/// Stable snake_case name for JSON keys and the text summary.
const char* counter_name(int c) noexcept;

using CounterArray = std::array<std::uint64_t, kNumCounters>;

/// Adds `delta` to counter `c` of the calling thread's block.
void bump(Counter c, std::uint64_t delta = 1) noexcept;

/// One secular root solved in `iterations` safeguarded iterations: bumps
/// the call/iteration totals and the matching histogram bucket.
void bump_laed4(int iterations) noexcept;

/// Sums every thread's block (including threads that have exited).
CounterArray snapshot() noexcept;

/// snapshot() minus `begin`, element-wise (saturating at 0 for safety).
CounterArray delta_since(const CounterArray& begin) noexcept;

}  // namespace dnc::obs

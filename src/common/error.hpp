// Error handling utilities shared by all dnc libraries.
//
// Numerical routines report convergence failures through dnc::NumericalError
// (carrying a LAPACK-style info code); precondition violations throw
// dnc::InvalidArgument. Hot loops use DNC_ASSERT, which compiles away in
// release builds unless DNC_ENABLE_ASSERTS is defined.
#pragma once

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace dnc {

/// Thrown when a caller violates a documented precondition.
class InvalidArgument : public std::invalid_argument {
 public:
  explicit InvalidArgument(const std::string& what) : std::invalid_argument(what) {}
};

/// Thrown when an iterative numerical method fails to converge.
/// `info` follows LAPACK conventions (index of the failing element/block).
class NumericalError : public std::runtime_error {
 public:
  NumericalError(const std::string& what, long info_code)
      : std::runtime_error(what + " (info=" + std::to_string(info_code) + ")"), info(info_code) {}
  long info;
};

#define DNC_REQUIRE(cond, msg)                  \
  do {                                          \
    if (!(cond)) throw ::dnc::InvalidArgument(msg); \
  } while (0)

/// Input contract of every tridiagonal driver: throws InvalidArgument naming
/// the first entry of d[0..n) or e[0..n-1) that is not finite -- in fp32
/// when `fp32` is set, i.e. whose magnitude exceeds FLT_MAX, because the
/// fp32 precisions narrow the input before scaling it. A NaN or Inf would
/// otherwise come back as NaN eigenvalues or a bisection that never ends.
inline void require_finite_tridiagonal(long n, const double* d, const double* e,
                                       const char* who, bool fp32) {
  const double limit = fp32 ? static_cast<double>(std::numeric_limits<float>::max())
                            : std::numeric_limits<double>::max();
  const auto check = [&](const double* x, long count, const char* name) {
    for (long i = 0; i < count; ++i)
      if (!(std::fabs(x[i]) <= limit))
        throw InvalidArgument(std::string(who) + ": " + name + "[" + std::to_string(i) +
                              "] is not finite" + (fp32 ? " in fp32" : ""));
  };
  check(d, n, "d");
  check(e, n - 1, "e");
}

#if defined(DNC_ENABLE_ASSERTS) || !defined(NDEBUG)
#define DNC_ASSERT(cond)                                                     \
  do {                                                                       \
    if (!(cond))                                                             \
      throw ::dnc::InvalidArgument(std::string("assertion failed: ") + #cond + \
                                   " at " + __FILE__ + ":" + std::to_string(__LINE__)); \
  } while (0)
#else
#define DNC_ASSERT(cond) ((void)0)
#endif

}  // namespace dnc

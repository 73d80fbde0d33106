// Error handling utilities shared by all dnc libraries.
//
// Numerical routines report convergence failures through dnc::NumericalError
// (carrying a LAPACK-style info code); precondition violations throw
// dnc::InvalidArgument. Hot loops use DNC_ASSERT, which compiles away in
// release builds unless DNC_ENABLE_ASSERTS is defined.
#pragma once

#include <cmath>
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
/// the first non-finite entry of d[0..n) or e[0..n-1). A NaN or Inf would
/// otherwise come back as NaN eigenvalues or a bisection that never ends.
inline void require_finite_tridiagonal(long n, const double* d, const double* e,
                                       const char* who) {
  for (long i = 0; i < n; ++i)
    if (!std::isfinite(d[i]))
      throw InvalidArgument(std::string(who) + ": d[" + std::to_string(i) + "] is not finite");
  for (long i = 0; i + 1 < n; ++i)
    if (!std::isfinite(e[i]))
      throw InvalidArgument(std::string(who) + ": e[" + std::to_string(i) + "] is not finite");
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

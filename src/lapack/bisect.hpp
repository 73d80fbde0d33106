// Sturm-count bisection for symmetric tridiagonal eigenvalues.
//
// Provides an algorithm-independent oracle for tests and the benchmark's
// result check (eigenvalues computed without QR/D&C/MRRR machinery); MRRR
// computes its own eigenvalues by dqds. Templated on the working precision.
#pragma once

#include <vector>

#include "common/matrix.hpp"

namespace dnc::lapack {

/// Number of eigenvalues of T strictly less than x (Sturm count via the
/// safeguarded LDL^T recurrence).
template <typename Real>
index_t sturm_count(index_t n, const Real* d, const Real* e, Real x);

/// Gershgorin bounds [lo, hi] enclosing the whole spectrum.
template <typename Real>
void gershgorin_bounds(index_t n, const Real* d, const Real* e, Real& lo, Real& hi);

/// k-th smallest eigenvalue (0-based) to absolute tolerance
/// tol_abs + tol_rel*|lambda| via bisection.
template <typename Real>
Real bisect_eigenvalue(index_t n, const Real* d, const Real* e, index_t k,
                       Real tol_rel = Real(0), Real tol_abs = Real(-1));

/// All eigenvalues, ascending. O(n^2 log(1/tol)); intended for n <= a few
/// thousand (tests and result checks).
template <typename Real>
std::vector<Real> bisect_all(index_t n, const Real* d, const Real* e, Real tol_rel = Real(0),
                             Real tol_abs = Real(-1));

}  // namespace dnc::lapack

// Secular equation solver (dlaed4/dlaed5 equivalents).
//
// Computes the i-th root of
//     f(lambda) = 1 + rho * sum_j z_j^2 / (d_j - lambda) = 0
// for strictly increasing d, rho > 0 and nonzero z_j (both guaranteed by the
// deflation step). The i-th root lies in (d_i, d_{i+1}) for i < k-1 and in
// (d_{k-1}, d_{k-1} + rho * ||z||^2) for i = k-1.
//
// The iteration follows the scheme of Ren-Cang Li used in LAPACK: work in a
// shifted coordinate tau relative to the closest pole so that differences
// d_j - lambda retain high relative accuracy, and take steps from a rational
// three-pole model (two explicit poles adjacent to the root plus a constant
// absorbing the rest), safeguarded by a shrinking bracket with bisection
// fallback.
//
// Templated on the working precision: the fp32 instantiation runs the same
// iteration with float epsilon driving the ERRETM convergence floor, so it
// converges in similar iteration counts to fp32-level accuracy.
#pragma once

#include "common/matrix.hpp"

namespace dnc::lapack {

template <typename Real>
struct SecularResultT {
  Real lambda = Real(0);  ///< the computed root
  Real origin = Real(0);  ///< pole used as shift origin
  Real tau = Real(0);     ///< lambda = origin + tau
  int iterations = 0;     ///< rational-iteration count
};

using SecularResult = SecularResultT<double>;

/// Solves for root `i` (0-based) of the k-dimensional secular equation.
/// delta[j] (length k) receives d_j - lambda, computed as
/// (d_j - origin) - tau so that entries adjacent to the root carry high
/// relative accuracy (required by the Gu-Eisenstat z-hat formula).
/// `max_iter` caps the rational iteration (0 selects 200); running out of
/// it before either stop test holds throws NumericalError.
template <typename Real>
SecularResultT<Real> laed4(index_t k, index_t i, const Real* d, const Real* z, Real rho,
                           Real* delta, int max_iter = 0);

/// Closed-form 2x2 case (dlaed5): i-th eigenvalue of D + rho z z^T, k = 2.
template <typename Real>
Real laed5(index_t i, const Real* d, const Real* z, Real rho, Real* delta);

}  // namespace dnc::lapack

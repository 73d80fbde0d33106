// dqds: all eigenvalues of a positive definite L D L^T to high relative
// accuracy (the differential quotient-difference algorithm with shifts of
// Fernando & Parlett, in the style of LAPACK's dlasq2). MRRR computes the
// eigenvalues of its root representation with it: O(n^2) total work with a
// small constant, against O(n^2 log(1/tol)) for bisection.
//
// Input is the qd array of the representation: q[i] = D[i] and
// e[i] = L[i]^2 D[i]. The eigenvalues of L D L^T are the squared singular
// values of the bidiagonal with diagonal sqrt(q) and off-diagonal sqrt(e),
// which each dqds sweep preserves while the bottom off-diagonal converges
// to zero. Templated on the working precision Real (double / float).
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "mrrr/ldl.hpp"

namespace dnc::mrrr {

/// Eigenvalues, ascending, of the qd array (q, e): q has n > 0 positive
/// entries, e has n-1 non-negative ones. `max_sweeps` caps the number of
/// dqds sweeps (0 selects dlasq2's 30 n); hitting the cap, or a sweep that
/// cannot be completed even without a shift, throws NumericalError. Input
/// that is not a positive definite qd array throws InvalidArgument.
template <typename Real>
std::vector<Real> dqds(std::vector<Real> q, std::vector<Real> e, index_t max_sweeps = 0);

/// Eigenvalues, ascending, of a positive definite representation
/// L D L^T (all D > 0), relative to its origin rep.sigma: dqds on
/// q = D, e = L^2 D.
template <typename Real>
std::vector<Real> dqds_eigenvalues(const RepresentationT<Real>& rep, index_t max_sweeps = 0);

}  // namespace dnc::mrrr

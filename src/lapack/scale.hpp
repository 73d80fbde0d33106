// Norm scaling of a symmetric tridiagonal problem into the safe range
// (dstedc's orgnrm step), shared by the D&C drivers and MRRR so that
// matrices near the overflow or underflow threshold are solved at unit
// norm. Templated on the working precision.
#pragma once

#include "common/matrix.hpp"

namespace dnc::lapack {

/// Scales d/e so the max-norm is 1; returns the original norm (0 means the
/// matrix was zero and nothing was scaled).
template <typename Real>
Real scale_problem(index_t n, Real* d, Real* e);

/// Undoes scale_problem on the eigenvalues.
template <typename Real>
void unscale_eigenvalues(index_t n, Real* d, Real orgnrm);

}  // namespace dnc::lapack

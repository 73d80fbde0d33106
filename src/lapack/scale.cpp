#include "lapack/scale.hpp"

#include "blas/aux.hpp"

namespace dnc::lapack {

template <typename Real>
Real scale_problem(index_t n, Real* d, Real* e) {
  const Real orgnrm = blas::lanst_max(n, d, e);
  if (orgnrm == Real(0)) return Real(0);
  blas::lascl(n, 1, orgnrm, Real(1), d, n);
  if (n > 1) blas::lascl(n - 1, 1, orgnrm, Real(1), e, n);
  return orgnrm;
}

template <typename Real>
void unscale_eigenvalues(index_t n, Real* d, Real orgnrm) {
  if (orgnrm != Real(0) && orgnrm != Real(1)) blas::lascl(n, 1, Real(1), orgnrm, d, n);
}

template double scale_problem<double>(index_t, double*, double*);
template float scale_problem<float>(index_t, float*, float*);
template void unscale_eigenvalues<double>(index_t, double*, double);
template void unscale_eigenvalues<float>(index_t, float*, float);

}  // namespace dnc::lapack

#include "lapack/stein.hpp"

#include <algorithm>
#include <cmath>

#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "lapack/bisect.hpp"

namespace dnc::lapack {

template <typename Real>
void stein_vector(index_t n, const Real* d, const Real* e, Real lambda, const Real* prev,
                  index_t ldprev, index_t nprev, Real* z, Rng& rng) {
  // LU factorization of T - lambda I with partial pivoting (dgttrf layout:
  // lower multipliers ml, main diagonal u0, first/second upper diagonals
  // u1/u2, pivot flags).
  std::vector<Real> ml(n), u0(n), u1(n), u2(n);
  std::vector<char> swapped(n, 0);
  {
    std::vector<Real> a(n), b(n > 1 ? n - 1 : 0), c(n > 1 ? n - 1 : 0);
    for (index_t i = 0; i < n; ++i) a[i] = d[i] - lambda;
    for (index_t i = 0; i + 1 < n; ++i) b[i] = c[i] = e[i];
    // A (near-)zero pivot is replaced by eps * ||T - lambda I|| (dlagts):
    // every direction of a (near-)degenerate eigenspace then grows by about
    // 1/eps per solve. A much smaller replacement would amplify one of them
    // so far that orthogonalising against an earlier member's vector leaves
    // only that vector's rounding error.
    Real amax = 0;
    for (index_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(a[i]));
    for (index_t i = 0; i + 1 < n; ++i) amax = std::max(amax, std::fabs(e[i]));
    const Real tiny = std::max(real_traits<Real>::eps() * amax, real_traits<Real>::safmin());
    for (index_t i = 0; i < n; ++i) {
      u0[i] = a[i];
      if (i + 1 < n) {
        if (std::fabs(a[i]) >= std::fabs(b[i])) {
          // No row swap.
          Real piv = a[i];
          if (std::fabs(piv) < tiny)
            piv = std::copysign(tiny, piv == Real(0) ? Real(1) : piv);
          u0[i] = piv;
          ml[i] = b[i] / piv;
          a[i + 1] -= ml[i] * c[i];
          u1[i] = c[i];
          u2[i] = Real(0);
        } else {
          // Swap rows i and i+1 for stability.
          swapped[i] = 1;
          const Real piv = b[i];
          u0[i] = piv;
          ml[i] = a[i] / piv;
          u1[i] = a[i + 1];
          const Real cnext = (i + 2 < n) ? c[i + 1] : Real(0);
          u2[i] = cnext;
          a[i + 1] = c[i] - ml[i] * a[i + 1];
          if (i + 2 < n) {
            b[i + 1] = b[i + 1];  // unchanged
            c[i + 1] = -ml[i] * cnext;
          }
        }
      } else if (std::fabs(u0[i]) < tiny) {
        u0[i] = std::copysign(tiny, u0[i] == Real(0) ? Real(1) : u0[i]);
      }
    }
  }
  const auto solve = [&](Real* x) {
    // Forward: apply L^{-1} with the recorded pivoting.
    for (index_t i = 0; i + 1 < n; ++i) {
      if (swapped[i]) std::swap(x[i], x[i + 1]);
      x[i + 1] -= ml[i] * x[i];
    }
    // Backward: U x = y.
    for (index_t i = n - 1; i >= 0; --i) {
      Real s = x[i];
      if (i + 1 < n) s -= u1[i] * x[i + 1];
      if (i + 2 < n) s -= u2[i] * x[i + 2];
      x[i] = s / u0[i];
    }
  };
  // Gram-Schmidt run twice (Kahan-Parlett): the solve can leave only a
  // small remainder against the predecessors, and one pass would keep
  // eps / |remainder| of cross-talk.
  const auto orthogonalize = [&] {
    for (int pass = 0; pass < 2; ++pass)
      for (index_t q = 0; q < nprev; ++q) {
        const Real* vq = prev + q * ldprev;
        blas::axpy(n, -blas::dot(n, vq, z), vq, z);
      }
  };
  for (index_t i = 0; i < n; ++i) z[i] = static_cast<Real>(rng.uniform_sym());
  for (int it = 0; it < 4; ++it) {
    orthogonalize();
    Real nrm = blas::nrm2(n, z);
    if (nrm < Real(1e-3)) {
      // Restart: the random vector was (nearly) inside span(prev).
      for (index_t i = 0; i < n; ++i) z[i] = static_cast<Real>(rng.uniform_sym());
      orthogonalize();
      nrm = blas::nrm2(n, z);
    }
    blas::scal(n, Real(1) / std::max(nrm, real_traits<Real>::safmin()), z);
    solve(z);
  }
  orthogonalize();
  const Real nrm = blas::nrm2(n, z);
  blas::scal(n, Real(1) / std::max(nrm, real_traits<Real>::safmin()), z);
}

template void stein_vector<double>(index_t, const double*, const double*, double,
                                   const double*, index_t, index_t, double*, Rng&);
template void stein_vector<float>(index_t, const float*, const float*, float, const float*,
                                  index_t, index_t, float*, Rng&);

void bi_solve(index_t n, const double* d, const double* e, std::vector<double>& lam,
              Matrix& v, double reorth_tol) {
  DNC_REQUIRE(n >= 0, "bi_solve: n >= 0");
  lam.clear();
  v.resize(n, n);
  if (n == 0) return;
  v.fill(0.0);
  if (n == 1) {
    lam.assign(1, d[0]);
    v(0, 0) = 1.0;
    return;
  }
  // Eigenvalues to near machine precision by Sturm bisection.
  lam = bisect_all(n, d, e, 0.0, -1.0);
  double tnorm = 0.0;
  for (index_t i = 0; i < n; ++i) tnorm = std::max(tnorm, std::fabs(lam[i]));
  const double close = reorth_tol * std::max(tnorm, real_traits<double>::safmin());
  // Inverse iteration; dstein reorthogonalises runs of close eigenvalues.
  Rng rng(0xb15ec7ULL);
  index_t s = 0;
  while (s < n) {
    index_t t = s;
    while (t + 1 < n && lam[t + 1] - lam[t] <= close) ++t;
    for (index_t k = s; k <= t; ++k)
      stein_vector(n, d, e, lam[k], v.data() + s * v.ld(), v.ld(), k - s,
                   v.data() + k * v.ld(), rng);
    s = t + 1;
  }
}

}  // namespace dnc::lapack

#include "lapack/refine.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/aux.hpp"
#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "lapack/bisect.hpp"
#include "obs/metrics.hpp"

namespace dnc::lapack {
namespace {

// Partially-pivoted LU of T - lambda I (dgttrf layout, as in stein.cpp):
// lower multipliers ml, main diagonal u0, first/second upper diagonals
// u1/u2, per-plane swap flags. Factor once per RQI step, solve once.
struct TridiagLU {
  std::vector<double> ml, u0, u1, u2;
  std::vector<char> swapped;

  void factor(index_t n, const double* d, const double* e, double lambda) {
    ml.assign(n, 0.0);
    u0.assign(n, 0.0);
    u1.assign(n, 0.0);
    u2.assign(n, 0.0);
    swapped.assign(n, 0);
    std::vector<double> a(n), b(n > 1 ? n - 1 : 0), c(n > 1 ? n - 1 : 0);
    for (index_t i = 0; i < n; ++i) a[i] = d[i] - lambda;
    for (index_t i = 0; i + 1 < n; ++i) b[i] = c[i] = e[i];
    // Near-zero pivots become eps * ||T - lambda I|| (dlagts), as in
    // stein.cpp: a degenerate eigenspace then grows evenly under the solve.
    double amax = 0.0;
    for (index_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(a[i]));
    for (index_t i = 0; i + 1 < n; ++i) amax = std::max(amax, std::fabs(e[i]));
    const double tiny = std::max(real_traits<double>::eps() * amax, real_traits<double>::safmin());
    for (index_t i = 0; i < n; ++i) {
      u0[i] = a[i];
      if (i + 1 < n) {
        if (std::fabs(a[i]) >= std::fabs(b[i])) {
          double piv = a[i];
          if (std::fabs(piv) < tiny) piv = std::copysign(tiny, piv == 0.0 ? 1.0 : piv);
          u0[i] = piv;
          ml[i] = b[i] / piv;
          a[i + 1] -= ml[i] * c[i];
          u1[i] = c[i];
          u2[i] = 0.0;
        } else {
          swapped[i] = 1;
          const double piv = b[i];
          u0[i] = piv;
          ml[i] = a[i] / piv;
          u1[i] = a[i + 1];
          const double cnext = (i + 2 < n) ? c[i + 1] : 0.0;
          u2[i] = cnext;
          a[i + 1] = c[i] - ml[i] * a[i + 1];
          if (i + 2 < n) c[i + 1] = -ml[i] * cnext;
        }
      } else if (std::fabs(u0[i]) < tiny) {
        u0[i] = std::copysign(tiny, u0[i] == 0.0 ? 1.0 : u0[i]);
      }
    }
  }

  void solve(index_t n, double* x) const {
    for (index_t i = 0; i + 1 < n; ++i) {
      if (swapped[i]) std::swap(x[i], x[i + 1]);
      x[i + 1] -= ml[i] * x[i];
    }
    for (index_t i = n - 1; i >= 0; --i) {
      double s = x[i];
      if (i + 1 < n) s -= u1[i] * x[i + 1];
      if (i + 2 < n) s -= u2[i] * x[i + 2];
      x[i] = s / u0[i];
    }
  }
};

// y = T x for the tridiagonal (d, e).
void tridiag_matvec(index_t n, const double* d, const double* e, const double* x, double* y) {
  for (index_t i = 0; i < n; ++i) {
    double s = d[i] * x[i];
    if (i > 0) s += e[i - 1] * x[i - 1];
    if (i + 1 < n) s += e[i] * x[i + 1];
    y[i] = s;
  }
}

// ||T x - lambda x||_inf, with y = T x already formed.
double residual_inf(index_t n, const double* x, const double* y, double lambda) {
  double r = 0.0;
  for (index_t i = 0; i < n; ++i) r = std::max(r, std::fabs(y[i] - lambda * x[i]));
  return r;
}

}  // namespace

RefineReport refine_eigenpairs(index_t n, const double* d, const double* e, double* lam,
                               double* v, index_t ldv, index_t nvec,
                               const RefineOptions& opts) {
  RefineReport rep;
  if (n <= 0 || nvec <= 0) return rep;
  DNC_REQUIRE(ldv >= n, "refine_eigenpairs: ldv < n");

  const double tnorm = blas::lanst_one(n, d, e);
  const double eps = real_traits<double>::eps();
  const double tol =
      opts.tol_factor * eps * std::max(tnorm, real_traits<double>::safmin());

  std::vector<double> y(n), w(n);
  TridiagLU lu;

  for (index_t j = 0; j < nvec; ++j) {
    double* vj = v + j * ldv;
    // fp32-normalised columns can be off by ~eps32 in SCALE even when
    // their direction is exact (a 2x2 rotation narrowed to fp32 has zero
    // residual but |1 - v'v| ~ 1e-8), and the residual fast path below
    // would then keep the bad scale: renormalise in fp64 first.
    const double nrm0 = blas::nrm2(n, vj);
    if (nrm0 > 0.0 && std::isfinite(nrm0)) blas::scal(n, 1.0 / nrm0, vj);
    tridiag_matvec(n, d, e, vj, y.data());
    double resid = residual_inf(n, vj, y.data(), lam[j]);
    ++rep.checked;
    rep.max_resid_before = std::max(rep.max_resid_before, resid);
    if (resid <= tol) {
      rep.max_resid_after = std::max(rep.max_resid_after, resid);
      continue;
    }
    ++rep.refined;
    // Start from the fp64 Rayleigh quotient of the fp32 vector -- already
    // ~quadratically better than the fp32 eigenvalue.
    double rho = blas::dot(n, vj, y.data()) / blas::dot(n, vj, vj);
    for (int it = 0; it < opts.max_iters; ++it) {
      ++rep.iterations;
      lu.factor(n, d, e, rho);
      blas::copy(n, vj, w.data());
      lu.solve(n, w.data());
      const double nrm = blas::nrm2(n, w.data());
      if (!(nrm > 0.0) || !std::isfinite(nrm)) break;  // solve blew up: keep current pair
      blas::scal(n, 1.0 / nrm, w.data());
      tridiag_matvec(n, d, e, w.data(), y.data());
      const double rho_new = blas::dot(n, w.data(), y.data());
      const double resid_new = residual_inf(n, w.data(), y.data(), rho_new);
      if (resid_new >= resid) break;  // stagnated; keep the better pair we have
      blas::copy(n, w.data(), vj);
      lam[j] = rho_new;
      rho = rho_new;
      resid = resid_new;
      if (resid <= tol) break;
    }
    rep.max_resid_after = std::max(rep.max_resid_after, resid);
  }

  // Refined eigenvalues can cross their unrefined neighbours: re-sort pairs
  // (selection sort to minimise column swaps, as dsteqr does).
  const auto sort_pairs = [&] {
    for (index_t ii = 1; ii < nvec; ++ii) {
      const index_t i = ii - 1;
      index_t k = i;
      double p = lam[i];
      for (index_t j = ii; j < nvec; ++j) {
        if (lam[j] < p) {
          k = j;
          p = lam[j];
        }
      }
      if (k != i) {
        lam[k] = lam[i];
        lam[i] = p;
        blas::swap(n, v + i * ldv, v + k * ldv);
      }
    }
  };
  sort_pairs();

  // Cluster safety net. RQI converges to the eigenvector whose eigenvalue
  // is nearest the starting Rayleigh quotient; inside an fp32-degenerate
  // cluster it can fail two ways: two members both converge to the SAME
  // dominant eigenvector (visible as overlap), or -- when the intra-cluster
  // gap is itself fp32-residual-sized -- the fp32 basis is an internally
  // rotated but orthogonal basis of the eigenspace, RQI stalls at the gap,
  // and the stall is visible only as residual. Either trigger re-extracts
  // the column with inverse iteration kept orthogonal to its cluster
  // predecessors (the dstein recipe, warm-started from the current vector)
  // -- unlike a plain Gram-Schmidt sweep this re-converges to a genuine
  // eigenvector, so the fp64 residual is restored, not just orthogonality.
  // Chaining width for cluster detection. Two refined vectors of DISTINCT
  // clusters carry mutual overlap up to ~2 tol / gap, and gap can be as
  // small as `close` itself -- so `close` must be large enough that
  // 2 tol / close stays below fp64 orthogonality (~100 eps n). 1e-2 gives
  // boundary overlap ~ 6e3 eps, i.e. invisible at the n eps scale; the cost
  // is only that a broken cluster chains more members into the bisection
  // re-extraction below.
  const double close = 1e-2 * std::max(tnorm, real_traits<double>::safmin());
  // Overlap trigger: anything visible above fp64 round-off (clean vectors
  // sit at ~sqrt(n) eps). RQI alone stalls at the intra-cluster gap, so a
  // loose 1e-4-scale trigger would leave fp32-grade cross-talk in place.
  const double otol = 64.0 * eps * static_cast<double>(n);
  index_t s = 0;
  while (s < nvec) {
    index_t t = s;
    while (t + 1 < nvec && lam[t + 1] - lam[t] <= close) ++t;
    // Scan: any cross-talk or stalled residual anywhere in the cluster?
    bool broken = false;
    for (index_t k = s; k <= t && !broken; ++k) {
      const double* vk = v + k * ldv;
      for (index_t q = s; q < k && !broken; ++q)
        broken = std::fabs(blas::dot(n, v + q * ldv, vk)) > otol;
      tridiag_matvec(n, d, e, vk, y.data());
      broken = broken || residual_inf(n, vk, y.data(), lam[k]) > tol;
    }
    if (!broken) {
      s = t + 1;
      continue;
    }
    // Re-extract the WHOLE cluster with fixed-shift inverse iteration (the
    // dstein recipe), shifts taken from Sturm bisection. Per-member repair
    // with Rayleigh or RQI-refined shifts cannot work here: when two fp32
    // columns collapse onto the same dominant eigenvector, the member
    // holding the duplicate would be orthogonalised against exactly the
    // direction its own shift amplifies, and the missing eigendirection is
    // recoverable only through its true eigenvalue -- which no surviving
    // column knows. Bisection is fp64-accurate regardless of how wrong the
    // fp32 start was; ascending order + Gram-Schmidt against the already
    // re-extracted predecessors makes each member claim a distinct
    // eigendirection. Shifts closer than pertol to the previous member's
    // are moved up to it (dstein): a truly degenerate eigenspace then grows
    // evenly under the solve instead of along the one direction of an
    // (almost) singular pivot, which Gram-Schmidt against the predecessors
    // would reduce to round-off (type 2, n = 1000: orthogonality 4e-5).
    const double pertol = 10.0 * eps * std::max(tnorm, real_traits<double>::safmin());
    double prev_rho = 0.0;
    for (index_t k = s; k <= t; ++k) {
      double* vk = v + k * ldv;
      double rho = nvec == n ? bisect_eigenvalue<double>(n, d, e, k) : lam[k];
      if (k > s && rho < prev_rho + pertol) rho = prev_rho + pertol;
      prev_rho = rho;
      // Classical Gram-Schmidt run twice: after the solve collapses the
      // iterate towards the shift's eigendirection the remainder against the
      // predecessors can be small, and a single pass leaves eps/|remainder|
      // of round-off cross-talk -- twice is enough (Kahan-Parlett).
      const auto orthogonalise = [&] {
        for (int pass = 0; pass < 2; ++pass)
          for (index_t q = s; q < k; ++q) {
            const double* vq = v + q * ldv;
            blas::axpy(n, -blas::dot(n, vq, vk), vq, vk);
          }
      };
      for (int it = 0; it < 3; ++it) {
        ++rep.iterations;
        orthogonalise();
        double nrm = blas::nrm2(n, vk);
        if (!(nrm > 0.0)) break;
        blas::scal(n, 1.0 / nrm, vk);
        lu.factor(n, d, e, rho);
        lu.solve(n, vk);
        nrm = blas::nrm2(n, vk);
        if (!(nrm > 0.0) || !std::isfinite(nrm)) break;
        blas::scal(n, 1.0 / nrm, vk);
      }
      orthogonalise();
      const double nrm = blas::nrm2(n, vk);
      if (nrm > 0.0) blas::scal(n, 1.0 / nrm, vk);
      tridiag_matvec(n, d, e, vk, y.data());
      lam[k] = blas::dot(n, vk, y.data());
      rep.max_resid_after =
          std::max(rep.max_resid_after, residual_inf(n, vk, y.data(), lam[k]));
    }
    s = t + 1;
  }
  // The cluster fix-up updates eigenvalues again; restore ascending order.
  sort_pairs();

  // Orthogonality polish. Each refined column is individually fp64-accurate,
  // but two columns with eigenvalue gap g still carry mutual overlap up to
  // (r_i + r_j) / g ~ 2 tol / g -- visible above the n-eps noise floor
  // whenever g is a small multiple of `close`. A windowed modified
  // Gram-Schmidt sweep (ascending, two passes) zeroes those dots; each
  // subtraction perturbs the residual by |dot| * g <= 2 tol, so fp64-grade
  // residuals survive. Pairs outside the window already satisfy
  // overlap <= 2 tol / wide ~ 1e3 eps, invisible at the n-eps metric scale.
  // Worst case (whole spectrum inside one window) this is O(n^3) scalar
  // work, the same order as the solve it is polishing.
  const double wide = 5e-2 * std::max(tnorm, real_traits<double>::safmin());
  for (index_t k = 1; k < nvec; ++k) {
    double* vk = v + k * ldv;
    index_t ws = k;
    while (ws > 0 && lam[k] - lam[ws - 1] <= wide) --ws;
    if (ws == k) continue;
    for (int pass = 0; pass < 2; ++pass)
      for (index_t q = ws; q < k; ++q) {
        const double* vq = v + q * ldv;
        blas::axpy(n, -blas::dot(n, vq, vk), vq, vk);
      }
    const double nrm = blas::nrm2(n, vk);
    if (nrm > 0.0) blas::scal(n, 1.0 / nrm, vk);
  }

  if (obs::metrics::enabled()) {
    namespace m = obs::metrics;
    m::add(m::register_metric(m::Kind::Counter, "dnc_refine_columns_total",
                              "result=\"checked\"",
                              "Eigenpairs examined/improved by fp64 refinement"),
           static_cast<double>(rep.checked));
    m::add(m::register_metric(m::Kind::Counter, "dnc_refine_columns_total",
                              "result=\"refined\"",
                              "Eigenpairs examined/improved by fp64 refinement"),
           static_cast<double>(rep.refined));
    if (rep.checked > 0)
      m::observe(m::register_metric(m::Kind::Histogram, "dnc_refine_steps", "",
                                    "Rayleigh-quotient iterations per refinement call"),
                 static_cast<double>(rep.iterations));
  }
  return rep;
}

}  // namespace dnc::lapack

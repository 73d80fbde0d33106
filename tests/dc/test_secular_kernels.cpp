// Unit tests of the panel kernels on a hand-built merge: panel splitting
// must be exactly equivalent to whole-range execution, and the merge
// layout (deflated columns kept in place, the ones in [0, k) moved once)
// must give exactly the father of a reference merge that copies every
// column out and back.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <numeric>

#include "blas/aux.hpp"
#include "common/rng.hpp"
#include "dc/api.hpp"
#include "dc/driver_common.hpp"
#include "dc/merge.hpp"
#include "lapack/scale.hpp"
#include "lapack/steqr.hpp"
#include "matgen/application.hpp"
#include "matgen/tridiag.hpp"
#include "verify/metrics.hpp"

namespace dnc::dc {
namespace {

// Builds a real merge situation by solving the two halves of a tridiagonal
// with steqr, then returns everything needed to run merge kernels.
struct Scenario {
  matgen::Tridiag t;
  Matrix q;
  std::vector<double> dvals;
  std::vector<index_t> perm;
  index_t n1;
  double beta;
};

Scenario make_scenario(const matgen::Tridiag& t) {
  Scenario s;
  s.t = t;
  const index_t n = t.n();
  s.n1 = n / 2;
  s.beta = s.t.e[s.n1 - 1];
  s.q.resize(n, n);
  s.q.fill(0.0);
  s.dvals = s.t.d;
  std::vector<double> e = s.t.e;
  // Cuppen boundary modification.
  s.dvals[s.n1 - 1] -= std::fabs(s.beta);
  s.dvals[s.n1] -= std::fabs(s.beta);
  lapack::steqr(lapack::CompZ::Identity, s.n1, s.dvals.data(), e.data(), s.q.data(), n);
  lapack::steqr(lapack::CompZ::Identity, n - s.n1, s.dvals.data() + s.n1, e.data() + s.n1,
                s.q.data() + s.n1 + s.n1 * n, n);
  s.perm.resize(n);
  for (index_t i = 0; i < s.n1; ++i) s.perm[i] = i;
  for (index_t i = s.n1; i < n; ++i) s.perm[i] = i - s.n1;
  return s;
}

Scenario make_scenario(index_t n, int type) {
  return make_scenario(matgen::table3_matrix(type, n, 5));
}

double merge_residual(const Scenario& s, const std::vector<double>& lam, const Matrix& q) {
  double worst = 0.0;
  const index_t n = s.t.n();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double r = s.t.d[i] * q(i, j);
      if (i > 0) r += s.t.e[i - 1] * q(i - 1, j);
      if (i + 1 < n) r += s.t.e[i] * q(i + 1, j);
      r -= lam[j] * q(i, j);
      worst = std::max(worst, std::fabs(r));
    }
  }
  return worst;
}

TEST(MergeKernels, SingleMergeSolvesProblem) {
  const index_t n = 96;
  Scenario s = make_scenario(n, 6);
  Workspace ws(n);
  TreeNode node{0, n, 0, 1, s.n1, 0};
  std::vector<double> e = s.t.e;
  MergeContext ctx(node, e.data(), 32);
  merge_sequential(ctx, s.q, ws, s.dvals.data(), s.perm.data(), 32);
  // Physically sort by perm for the residual check.
  std::vector<double> lam(n);
  Matrix sorted(n, n);
  for (index_t r = 0; r < n; ++r) {
    lam[r] = s.dvals[s.perm[r]];
    for (index_t i = 0; i < n; ++i) sorted(i, r) = s.q(i, s.perm[r]);
  }
  EXPECT_LT(merge_residual(s, lam, sorted), 1e-13);
  EXPECT_LT(verify::orthogonality(sorted), 1e-14);
}

TEST(MergeKernels, PanelWidthEquivalence) {
  const index_t n = 90;
  std::vector<std::vector<double>> results;
  for (index_t nb : {index_t{90}, index_t{13}, index_t{1}}) {
    Scenario s = make_scenario(n, 5);
    Workspace ws(n);
    TreeNode node{0, n, 0, 1, s.n1, 0};
    std::vector<double> e = s.t.e;
    MergeContext ctx(node, e.data(), nb);
    merge_sequential(ctx, s.q, ws, s.dvals.data(), s.perm.data(), nb);
    results.push_back(s.dvals);
  }
  // Identical results regardless of panel width (the panel split changes
  // only the order of independent work, not the arithmetic).
  for (std::size_t i = 1; i < results.size(); ++i)
    for (index_t j = 0; j < n; ++j) EXPECT_EQ(results[0][j], results[i][j]) << "nb case " << i;
}

TEST(MergeKernels, FinalizeOrderSortsEverything) {
  const index_t n = 64;
  Scenario s = make_scenario(n, 6);
  Workspace ws(n);
  TreeNode node{0, n, 0, 1, s.n1, 0};
  std::vector<double> e = s.t.e;
  MergeContext ctx(node, e.data(), 16);
  merge_sequential(ctx, s.q, ws, s.dvals.data(), s.perm.data(), 16);
  for (index_t r = 1; r < n; ++r)
    EXPECT_LE(s.dvals[s.perm[r - 1]], s.dvals[s.perm[r]]);
}

TEST(MergeKernels, ZhatMatchesOriginalZWhenExact) {
  // For a well-separated system the stabilised z-hat must reproduce
  // sqrt(rho) * |w| closely (the Gu-Eisenstat correction is tiny).
  const index_t n = 48;
  Scenario s = make_scenario(n, 13);  // Legendre: no deflation
  Workspace ws(n);
  TreeNode node{0, n, 0, 1, s.n1, 0};
  std::vector<double> e = s.t.e;
  MergeContext ctx(node, e.data(), 16);
  merge_sequential(ctx, s.q, ws, s.dvals.data(), s.perm.data(), 16);
  const auto& defl = ctx.defl;
  if (defl.k == 0) GTEST_SKIP();
  const double sqrho = std::sqrt(defl.rho);
  for (index_t i = 0; i < defl.k; ++i) {
    EXPECT_NEAR(std::fabs(ctx.zhat[i]), sqrho * std::fabs(defl.w[i]),
                1e-8 * sqrho * std::fabs(defl.w[i]) + 1e-18)
        << "component " << i;
  }
}

// ---- merge layout ----

/// Eigenpairs in ascending eigenvalue order.
struct Eigenpairs {
  std::vector<double> lam;
  Matrix v;
};

void expect_identical(const Eigenpairs& a, const Eigenpairs& b) {
  ASSERT_EQ(a.lam.size(), b.lam.size());
  const index_t n = static_cast<index_t>(a.lam.size());
  ASSERT_EQ(a.v.rows(), n);
  ASSERT_EQ(b.v.rows(), n);
  for (index_t j = 0; j < n; ++j) {
    EXPECT_EQ(a.lam[j], b.lam[j]) << "eigenvalue " << j;
    EXPECT_EQ(std::memcmp(a.v.data() + j * n, b.v.data() + j * n, n * sizeof(double)), 0)
        << "eigenvector " << j;
  }
}

/// Reference merge in LAPACK's dlaed2/dlaed3 layout, without the PermuteV
/// and CopyBackDeflated kernels or finalize_order: every non-deflated
/// column is copied out by hand, deflated pairs are read from the rotated
/// block in grouped order, and roots and deflated pairs are merged by
/// value, roots first on ties. The secular part runs the same kernels with
/// the same panel split, so the result must agree to the last bit.
Eigenpairs reference_merge(const Scenario& s, index_t nb) {
  const index_t m = s.t.n();
  const index_t n1 = s.n1;
  Matrix q = s.q;
  std::vector<double> d = s.dvals;
  std::vector<double> z(m);
  const double scale = std::sqrt(0.5);
  const double sgn = s.beta < 0.0 ? -scale : scale;
  for (index_t j = 0; j < m; ++j) z[j] = j < n1 ? scale * q(n1 - 1, j) : sgn * q(n1, j);
  const DeflationResult defl = deflate(n1, m - n1, d.data(), z.data(), std::fabs(2.0 * s.beta),
                                       q.view(), s.perm.data(), s.perm.data() + n1);
  const index_t k = defl.k;
  Matrix w1(n1, m), w2(m - n1, m);
  for (index_t g = 0; g < k; ++g) {
    const index_t j = defl.indx[g];
    if (g < defl.k12()) {
      for (index_t i = 0; i < n1; ++i) w1(i, g) = q(i, j);
    }
    if (g >= defl.ctot[0]) {
      for (index_t i = n1; i < m; ++i) w2(i - n1, g - defl.ctot[0]) = q(i, j);
    }
  }
  const index_t npanels = (m + nb - 1) / nb;
  std::vector<double> lam(k), zhat(k);
  Matrix deltam(k, k), smat(k, k), roots(m, k), wparts(std::max<index_t>(k, 1), npanels);
  wparts.fill(1.0);
  for (index_t p = 0; p < npanels; ++p)
    secular_solve_panel(defl, p * nb, std::min(p * nb + nb, m), lam.data(), deltam.view());
  for (index_t p = 0; p < npanels; ++p)
    zhat_local_panel(defl, deltam.view(), p * nb, std::min(p * nb + nb, m),
                     wparts.data() + p * wparts.ld());
  zhat_reduce(defl, wparts.view(), npanels, zhat.data());
  for (index_t p = 0; p < npanels; ++p) {
    const index_t j0 = p * nb, j1 = std::min(j0 + nb, m);
    secular_vectors_panel(defl, deltam.view(), zhat.data(), j0, j1, smat.view());
    update_vectors_panel(defl, w1.view(), w2.view(), smat.view(), j0, j1, roots.view());
  }

  Eigenpairs ref{std::vector<double>(m), Matrix(m, m)};
  index_t r = 0, g = k;
  for (index_t t = 0; t < m; ++t) {
    const double* col;
    if (g == m || (r < k && lam[r] <= d[defl.indx[g]])) {
      ref.lam[t] = lam[r];
      col = roots.data() + r++ * m;
    } else {
      ref.lam[t] = d[defl.indx[g]];
      col = q.data() + defl.indx[g++] * m;
    }
    std::memcpy(ref.v.data() + t * m, col, m * sizeof(double));
  }
  return ref;
}

/// The father of merge_sequential, read through perm.
Eigenpairs merge_through_perm(Scenario s, index_t nb) {
  const index_t m = s.t.n();
  Workspace ws(m);
  TreeNode node{0, m, 0, 1, s.n1, 0};
  MergeContext ctx(node, s.t.e.data(), nb);
  merge_sequential(ctx, s.q, ws, s.dvals.data(), s.perm.data(), nb);
  Eigenpairs out{std::vector<double>(m), Matrix(m, m)};
  for (index_t r = 0; r < m; ++r) {
    out.lam[r] = s.dvals[s.perm[r]];
    std::memcpy(out.v.data() + r * m, s.q.data() + s.perm[r] * m, m * sizeof(double));
  }
  return out;
}

struct LayoutCase {
  const char* name;
  matgen::Tridiag t;
  bool (*shape)(const DeflationResult&);  ///< the layout feature the case exercises
};

/// Merges of size 84 (two sons of 42) covering every branch of the layout.
std::vector<LayoutCase> layout_cases() {
  return {
      {"k = 0 (type 2)", matgen::table3_matrix(2, 84, 5),
       [](const DeflationResult& r) { return r.k == 0; }},
      {"k = m (type 4)", matgen::table3_matrix(4, 84, 5),
       [](const DeflationResult& r) { return r.k == r.m; }},
      {"deflated columns in [0, k) (type 3)", matgen::table3_matrix(3, 84, 5),
       [](const DeflationResult& r) { return !r.moves.empty() && r.ctot[1] == 0; }},
      {"all column types (type 9)", matgen::table3_matrix(9, 84, 5),
       [](const DeflationResult& r) {
         return r.ctot[0] > 0 && r.ctot[1] > 0 && r.ctot[2] > 0 && !r.moves.empty();
       }},
      {"cross-son rotations (glued Wilkinson)", matgen::glued_wilkinson(21, 4, 1e-4),
       [](const DeflationResult& r) { return r.ctot[1] > 10 && !r.moves.empty(); }},
  };
}

TEST(MergeLayout, FatherMatchesReferenceMerge) {
  for (const LayoutCase& c : layout_cases()) {
    SCOPED_TRACE(c.name);
    const Scenario s = make_scenario(c.t);
    const index_t m = c.t.n();
    for (index_t nb : {m, index_t{13}, index_t{1}}) {
      SCOPED_TRACE("nb = " + std::to_string(nb));
      Scenario probe = s;
      Workspace ws(m);
      MergeContext ctx(TreeNode{0, m, 0, 1, s.n1, 0}, probe.t.e.data(), nb);
      merge_sequential(ctx, probe.q, ws, probe.dvals.data(), probe.perm.data(), nb);
      ASSERT_TRUE(c.shape(ctx.defl)) << "k = " << ctx.defl.k;
      // The layout itself: moves go from deflated columns in [0, k) to
      // slots >= k, and every deflated column ends in [k, m).
      for (const ColumnMove& mv : ctx.defl.moves) {
        EXPECT_LT(mv.src, ctx.defl.k);
        EXPECT_GE(mv.dst, ctx.defl.k);
      }
      for (index_t g = ctx.defl.k; g < m; ++g)
        EXPECT_GE(ctx.defl.final_column(ctx.defl.indx[g]), ctx.defl.k);
      expect_identical(merge_through_perm(s, nb), reference_merge(s, nb));
    }
  }
}

TEST(MergeLayout, TaskflowSingleMergeMatchesReferenceMerge) {
  // minpart = n / 2 makes the solve one merge of two steqr leaves; the
  // reference replays the driver's scaling around it.
  const index_t nb = 13;
  for (const LayoutCase& c : layout_cases()) {
    SCOPED_TRACE(c.name);
    const index_t n = c.t.n();
    matgen::Tridiag scaled = c.t;
    const double orgnrm = lapack::scale_problem(n, scaled.d.data(), scaled.e.data());
    Eigenpairs ref = reference_merge(make_scenario(scaled), nb);
    lapack::unscale_eigenvalues(n, ref.lam.data(), orgnrm);
    for (bool extra : {false, true}) {
      SCOPED_TRACE(extra ? "extra_workspace on" : "extra_workspace off");
      Options opt;
      opt.minpart = n / 2;
      opt.nb = nb;
      opt.threads = 4;
      opt.extra_workspace = extra;
      opt.precision = Precision::F64;
      Eigenpairs got{c.t.d, Matrix()};
      std::vector<double> e = c.t.e;
      stedc_taskflow(n, got.lam.data(), e.data(), got.v, opt);
      expect_identical(got, ref);
    }
  }
}

TEST(MergeKernels, HandBuiltDeflationResultIsValidPanelInput) {
  // A DeflationResult with only m, n1, k, ctot and a seeded permutation in
  // indx, as kernel benchmarks build it: PermuteV compresses the
  // non-deflated columns, and with no moves CopyBackDeflated leaves the
  // block untouched.
  const index_t m = 50, n1 = 25;
  for (const auto& ctot : {std::array<index_t, 4>{10, 5, 12, 23},
                           std::array<index_t, 4>{0, 0, 0, 50}}) {
    DeflationResult defl;
    defl.m = m;
    defl.n1 = n1;
    for (int t = 0; t < 4; ++t) defl.ctot[t] = ctot[t];
    defl.k = ctot[0] + ctot[1] + ctot[2];
    defl.indx.resize(m);
    std::iota(defl.indx.begin(), defl.indx.end(), index_t{0});
    Rng rng(3);
    for (index_t i = m - 1; i > 0; --i)
      std::swap(defl.indx[i], defl.indx[rng.uniform_below(static_cast<std::uint64_t>(i) + 1)]);
    Matrix q(m, m), qwork(m, m);
    for (index_t i = 0; i < m * m; ++i) q.data()[i] = static_cast<double>(i % 97);
    qwork.fill(-1.0);
    const Matrix q0 = q;
    auto w1 = qwork.block(0, 0, n1, m);
    auto w2 = qwork.block(n1, 0, m - n1, m);
    auto wdefl = qwork.block(0, defl.k, m, m - defl.k);
    permute_panel(defl, q.view(), w1, w2, wdefl, 0, m);
    copyback_panel(defl, wdefl, 0, m, q.view());
    EXPECT_EQ(std::memcmp(q.data(), q0.data(), q.size_bytes()), 0);
    for (index_t g = 0; g < defl.k; ++g) {
      const index_t j = defl.indx[g];
      if (g < defl.k12()) {
        for (index_t i = 0; i < n1; ++i) EXPECT_EQ(w1(i, g), q0(i, j));
      }
      if (g >= defl.ctot[0]) {
        for (index_t i = n1; i < m; ++i) EXPECT_EQ(w2(i - n1, g - defl.ctot[0]), q0(i, j));
      }
    }
  }
}

// ---- final sort ----

/// sort_eigenpairs against an out-of-place gather for one permutation.
void expect_sorts_like_gather(const std::vector<index_t>& perm) {
  const index_t n = static_cast<index_t>(perm.size());
  Rng rng(11 + static_cast<std::uint64_t>(n));
  std::vector<double> d(n);
  Matrix v(n, n);
  for (auto& x : d) x = rng.uniform_sym();
  for (index_t i = 0; i < n * n; ++i) v.data()[i] = rng.uniform_sym();
  std::vector<double> dref(n);
  Matrix vref(n, n);
  for (index_t r = 0; r < n; ++r) {
    dref[r] = d[perm[r]];
    for (index_t i = 0; i < n; ++i) vref(i, r) = v(i, perm[r]);
  }
  detail::sort_eigenpairs(n, d.data(), v, perm.data());
  EXPECT_EQ(d, dref);
  EXPECT_TRUE(std::equal(v.data(), v.data() + n * n, vref.data()));
}

TEST(SortEigenpairs, InPlaceMatchesGather) {
  // Every permutation of n = 0..3.
  for (index_t n = 0; n <= 3; ++n) {
    std::vector<index_t> perm(n);
    std::iota(perm.begin(), perm.end(), index_t{0});
    do {
      expect_sorts_like_gather(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  const index_t n = 40;
  std::vector<index_t> identity(n), cycle(n), swaps(n), shuffled(n);
  for (index_t r = 0; r < n; ++r) {
    identity[r] = r;
    cycle[r] = (r + 1) % n;  // one n-long cycle
    swaps[r] = r ^ 1;        // n/2 2-cycles
  }
  std::iota(shuffled.begin(), shuffled.end(), index_t{0});
  Rng rng(9);
  for (index_t i = n - 1; i > 0; --i)
    std::swap(shuffled[i], shuffled[rng.uniform_below(static_cast<std::uint64_t>(i) + 1)]);
  for (const auto& perm : {identity, cycle, swaps, shuffled}) expect_sorts_like_gather(perm);
}

}  // namespace
}  // namespace dnc::dc

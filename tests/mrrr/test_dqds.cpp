// dqds root eigenvalues against the Sturm-bisection oracle: every Table III
// family at tiny and medium n in fp64 and fp32, the glued Wilkinson case,
// a diagonal that splits everywhere, and the hard sweep cap.
#include "mrrr/dqds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "lapack/bisect.hpp"
#include "matgen/application.hpp"
#include "matgen/tridiag.hpp"

namespace dnc::mrrr {
namespace {

/// Max |lambda_dqds - lambda_bisect| over the spectrum of (d, e) narrowed to
/// Real, in units of eps(Real) * ||T||. The root representation is the one
/// mrrr_solve builds: L D L^T = T - sigma0 I with sigma0 below Gershgorin.
template <typename Real>
double dqds_error_in_eps_norm(const matgen::Tridiag& t) {
  const index_t n = t.n();
  std::vector<Real> d(t.d.begin(), t.d.end()), e(t.e.begin(), t.e.end());
  Real glo, ghi;
  lapack::gershgorin_bounds(n, d.data(), e.data(), glo, ghi);
  const Real spread = std::max(ghi - glo, std::numeric_limits<Real>::min());
  const Real sigma0 = glo - Real(0.03125) * spread;
  const auto rep = ldl_factor(n, d.data(), e.data(), sigma0);
  const std::vector<Real> mu = dqds_eigenvalues(rep);
  // The oracle runs in fp64 on the same (narrowed) matrix.
  const std::vector<double> d64(d.begin(), d.end()), e64(e.begin(), e.end());
  const std::vector<double> ref = lapack::bisect_all(n, d64.data(), e64.data());
  EXPECT_EQ(mu.size(), ref.size());
  EXPECT_TRUE(std::is_sorted(mu.begin(), mu.end()));
  // Gershgorin widens by a few safmin: a zero matrix is solved to that.
  const double eps_norm =
      std::max(double(std::numeric_limits<Real>::epsilon()) *
                   std::max(std::fabs(double(glo)), std::fabs(double(ghi))),
               4.0 * double(std::numeric_limits<Real>::min()));
  double err = 0;
  for (std::size_t i = 0; i < mu.size() && i < ref.size(); ++i)
    err = std::max(err, std::fabs((double(sigma0) + double(mu[i])) - ref[i]));
  return err / eps_norm;
}

/// Bound on the error in eps * ||T||. Every dqds sweep perturbs the
/// eigenvalues still in the array by O(eps) relatively; the largest ones
/// wait through most of the ~4n sweeps, so their error grows like sqrt(n)
/// (n = 512 reaches ~45 on the Wilkinson family, n <= 64 stays below ~11).
double eps_norm_tol(index_t n) { return 8.0 + 4.0 * std::sqrt(static_cast<double>(n)); }

class DqdsTypes : public ::testing::TestWithParam<int> {};

TEST_P(DqdsTypes, MatchesBisection) {
  const int type = GetParam();
  for (index_t n : {index_t{1}, index_t{2}, index_t{3}, index_t{64}, index_t{512}}) {
    const auto t = matgen::table3_matrix(type, n, 5);
    EXPECT_LT(dqds_error_in_eps_norm<double>(t), eps_norm_tol(n)) << "fp64, n = " << n;
    EXPECT_LT(dqds_error_in_eps_norm<float>(t), eps_norm_tol(n)) << "fp32, n = " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DqdsTypes, ::testing::Range(1, 16));

TEST(Dqds, GluedWilkinson) {
  const auto t = matgen::glued_wilkinson(21, 6, 1e-7);
  EXPECT_LT(dqds_error_in_eps_norm<double>(t), eps_norm_tol(t.n()));
  EXPECT_LT(dqds_error_in_eps_norm<float>(t), eps_norm_tol(t.n()));
}

TEST(Dqds, DiagonalSplitsEverywhere) {
  // e = 0: every row is its own block and each q is an eigenvalue.
  const index_t n = 40;
  matgen::Tridiag t;
  t.d.resize(n);
  t.e.assign(n - 1, 0.0);
  for (index_t i = 0; i < n; ++i) t.d[i] = std::sin(static_cast<double>(3 * i));
  EXPECT_LT(dqds_error_in_eps_norm<double>(t), eps_norm_tol(n));
  EXPECT_LT(dqds_error_in_eps_norm<float>(t), eps_norm_tol(n));
  // One negligible coupling in the middle of an otherwise unreduced matrix.
  auto u = matgen::table3_matrix(4, 100, 3);
  u.e[49] = 0.0;
  EXPECT_LT(dqds_error_in_eps_norm<double>(u), eps_norm_tol(u.n()));
}

TEST(Dqds, SweepCapThrowsNumericalError) {
  const auto t = matgen::table3_matrix(4, 200, 1);
  double glo, ghi;
  lapack::gershgorin_bounds(t.n(), t.d.data(), t.e.data(), glo, ghi);
  const auto rep = ldl_factor(t.n(), t.d.data(), t.e.data(), glo - 0.03125 * (ghi - glo));
  EXPECT_THROW(dqds_eigenvalues(rep, /*max_sweeps=*/10), NumericalError);
  EXPECT_NO_THROW(dqds_eigenvalues(rep));
}

TEST(Dqds, RejectsNonPositiveInput) {
  EXPECT_THROW(dqds<double>({1.0, -1.0}, {0.5}), InvalidArgument);
  EXPECT_THROW(dqds<double>({1.0, 1.0}, {-0.5}), InvalidArgument);
  EXPECT_THROW(dqds<double>({1.0, std::nan("")}, {0.5}), InvalidArgument);
  EXPECT_THROW(dqds<double>({1.0}, {0.5}), InvalidArgument);
}

}  // namespace
}  // namespace dnc::mrrr

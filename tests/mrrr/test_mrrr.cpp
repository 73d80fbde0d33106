#include "mrrr/mrrr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../support/precision_testing.hpp"
#include "matgen/application.hpp"
#include "matgen/tridiag.hpp"
#include "verify/metrics.hpp"

namespace dnc::mrrr {
namespace {

void expect_mrrr_quality(const matgen::Tridiag& t, const std::vector<double>& lam,
                         const Matrix& v, double orth_bound = 1e-13) {
  // MRRR targets O(n eps) orthogonality -- looser than D&C, which is
  // exactly the paper's Figure 9 finding. The bounds are calibrated for
  // fp64 and scale with the working epsilon under DNC_PREC=f32.
  const double ts = test_support::tol_scale();
  EXPECT_LT(verify::orthogonality(v), orth_bound * ts);
  EXPECT_LT(verify::reduction_residual(t, lam, v), 1e-13 * ts);
  EXPECT_LT(verify::eigenvalue_error_vs_bisection(t, lam),
            1e-12 * ts);  // bisection-vs-perturbed-matrix tolerance
  EXPECT_TRUE(std::is_sorted(lam.begin(), lam.end()));
}

class MrrrTypes : public ::testing::TestWithParam<int> {};

TEST_P(MrrrTypes, SolvesTable3) {
  const int type = GetParam();
  const index_t n = 150;
  auto t = matgen::table3_matrix(type, n, 31);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 3;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt);
  expect_mrrr_quality(t, lam, v);
}

TEST_P(MrrrTypes, SolvesTable3At512FourThreads) {
  const int type = GetParam();
  const index_t n = 512;
  auto t = matgen::table3_matrix(type, n, 31);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 4;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt);
  expect_mrrr_quality(t, lam, v);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MrrrTypes, ::testing::Range(1, 16));

TEST(Mrrr, ExtremeScalingStaysWithinGates) {
  DNC_SKIP_IF_F32_RANGE_EXCEEDED();
  // MRRR scales its working copy to unit norm like the D&C drivers. The
  // gates are scale-invariant, so the eigenvalues are checked scaled back
  // against the unit-scale matrix (bisection cannot run at 1e300: e^2
  // overflows in its Sturm count).
  const index_t n = 800;
  const auto t = matgen::table3_matrix(4, n);
  for (const double scale : {1e300, 1e-300, 1e150, 1e-150}) {
    auto ts = t;
    for (auto& x : ts.d) x *= scale;
    for (auto& x : ts.e) x *= scale;
    std::vector<double> lam;
    Matrix v;
    Options opt;
    opt.threads = 4;
    mrrr_solve(n, ts.d.data(), ts.e.data(), lam, v, opt);
    for (auto& x : lam) x /= scale;
    SCOPED_TRACE(scale);
    expect_mrrr_quality(t, lam, v);
  }
}

TEST(Mrrr, TinySizes) {
  for (index_t n : {index_t{1}, index_t{2}, index_t{3}}) {
    auto t = matgen::onetwoone(n);
    std::vector<double> lam;
    Matrix v;
    mrrr_solve(n, t.d.data(), t.e.data(), lam, v);
    expect_mrrr_quality(t, lam, v);
  }
}

TEST(Mrrr, WilkinsonEvenPairs) {
  // The historically hard case: even-n Wilkinson has eigenvalue pairs equal
  // to the last bit.
  auto t = matgen::wilkinson(100);
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(100, t.d.data(), t.e.data(), lam, v);
  expect_mrrr_quality(t, lam, v);
}

TEST(Mrrr, GluedWilkinson) {
  Rng rng(1);
  auto t = matgen::glued_wilkinson(21, 6, 1e-7);
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(t.n(), t.d.data(), t.e.data(), lam, v);
  // Glued Wilkinson is the canonical hard case for MRRR: expect a couple of
  // digits of orthogonality loss (the paper's Fig. 9 shows the same for
  // MR3-SMP) but still a usable decomposition.
  expect_mrrr_quality(t, lam, v, 1e-11);
}

TEST(Mrrr, GluedWilkinsonWithExactDoubleEigenvalue) {
  // The Figure 10 glued matrix: eigenvalues 359 and 360 agree to the last
  // bit, so their vectors come from inverse iteration at one shift. A
  // near-zero pivot replaced by ~safmin amplified one direction of that
  // eigenspace so far that orthogonalising the second vector against the
  // first left rounding noise (residual 1e-4); pivots are now eps * ||T||.
  auto t = matgen::glued_wilkinson(21, 20, 1e-4);
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(t.n(), t.d.data(), t.e.data(), lam, v);
  expect_mrrr_quality(t, lam, v, 1e-11);
}

TEST(Mrrr, DiagonalMatrixSplitsToBlocks) {
  const index_t n = 50;
  matgen::Tridiag t;
  t.d.resize(n);
  t.e.assign(n - 1, 0.0);
  for (index_t i = 0; i < n; ++i) t.d[i] = std::sin(static_cast<double>(i));
  std::vector<double> lam;
  Matrix v;
  Stats st;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, {}, &st);
  EXPECT_EQ(st.blocks, n);
  expect_mrrr_quality(t, lam, v);
}

TEST(Mrrr, StatsAndSimulation) {
  auto t = matgen::table3_matrix(5, 200, 9);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 2;
  opt.grain = 8;  // enough tasks for the simulator to overlap
  Stats st;
  mrrr_solve(200, t.d.data(), t.e.data(), lam, v, opt, &st, {1, 16});
  EXPECT_EQ(st.n, 200);
  EXPECT_GT(st.trace.events.size(), 0u);
  ASSERT_EQ(st.simulated.size(), 2u);
  EXPECT_GE(st.simulated[0].makespan + 1e-12, st.simulated[1].makespan);
  // MRRR's per-vector tasks parallelise well: expect real speedup at 16
  // virtual workers.
  EXPECT_GT(st.simulated[0].makespan / st.simulated[1].makespan, 1.3);
}

TEST(Mrrr, ThreadCountInvariance) {
  auto t = matgen::table3_matrix(6, 120, 8);
  std::vector<double> lam1, lam4;
  Matrix v1, v4;
  Options o1;
  o1.threads = 1;
  Options o4;
  o4.threads = 4;
  mrrr_solve(120, t.d.data(), t.e.data(), lam1, v1, o1);
  mrrr_solve(120, t.d.data(), t.e.data(), lam4, v4, o4);
  for (index_t i = 0; i < 120; ++i) EXPECT_EQ(lam1[i], lam4[i]);
}

TEST(Mrrr, GrainSweep) {
  auto t = matgen::table3_matrix(4, 100, 2);
  for (index_t grain : {index_t{1}, index_t{8}, index_t{64}, index_t{1000}}) {
    std::vector<double> lam;
    Matrix v;
    Options opt;
    opt.grain = grain;
    mrrr_solve(100, t.d.data(), t.e.data(), lam, v, opt);
    expect_mrrr_quality(t, lam, v);
  }
}

TEST(Mrrr, ApplicationSuite) {
  Rng rng(3);
  auto m = matgen::fem_laplacian_jump(160, 5, rng);
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(m.n(), m.d.data(), m.e.data(), lam, v);
  expect_mrrr_quality(m, lam, v, 1e-12);
}

TEST(Mrrr, InputsNotModified) {
  auto t = matgen::table3_matrix(3, 80, 4);
  auto d0 = t.d, e0 = t.e;
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(80, t.d.data(), t.e.data(), lam, v);
  EXPECT_EQ(t.d, d0);
  EXPECT_EQ(t.e, e0);
}

}  // namespace
}  // namespace dnc::mrrr

// The precision layer's property tests: fp32 kernels against fp64
// references with eps32-scaled tolerances, fp32 laed4 against the fp64
// root, and the F32RefineF64 accuracy gate -- the mixed-precision driver
// must land fp64-grade residuals on every Table III bench family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "common/rng.hpp"
#include "dc/api.hpp"
#include "lapack/laed4.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"
#include "verify/metrics.hpp"

namespace dnc {
namespace {

constexpr double kEps32 = std::numeric_limits<float>::epsilon();
constexpr double kEps64 = std::numeric_limits<double>::epsilon();

std::vector<double> random_vector(index_t n, Rng& rng, double scale = 1.0) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = scale * rng.uniform_sym();
  return v;
}

std::vector<float> narrowed(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// fp32 kernels vs fp64 references. The fp64 result stands in for the exact
// one (its error is ~eps64, negligible against the eps32-scale bound); the
// fp32 error of a length-k accumulation is bounded by ~k * eps32 * |x| * |y|.

TEST(PrecisionKernels, GemmF32MatchesF64Reference) {
  Rng rng(42);
  for (index_t m : {index_t{7}, index_t{32}, index_t{61}}) {
    const index_t k = m + 5, n = m + 3;
    const std::vector<double> a = random_vector(m * k, rng);
    const std::vector<double> b = random_vector(k * n, rng);
    std::vector<double> c64(static_cast<std::size_t>(m * n), 0.0);
    blas::gemm<double>(blas::Trans::No, blas::Trans::No, m, n, k, 1.0, a.data(), m, b.data(), k,
                       0.0, c64.data(), m);
    const std::vector<float> a32 = narrowed(a), b32 = narrowed(b);
    std::vector<float> c32(static_cast<std::size_t>(m * n), 0.0f);
    blas::gemm<float>(blas::Trans::No, blas::Trans::No, m, n, k, 1.0f, a32.data(), m, b32.data(),
                      k, 0.0f, c32.data(), m);
    const double tol = 8.0 * static_cast<double>(k) * kEps32;
    for (std::size_t i = 0; i < c64.size(); ++i)
      ASSERT_NEAR(static_cast<double>(c32[i]), c64[i], tol) << "m=" << m << " i=" << i;
  }
}

TEST(PrecisionKernels, GemmF32MatchesItsOwnReference) {
  // The dispatched fp32 kernel (AVX2 8-lane where available) against the
  // plain-loop fp32 reference: same precision, so near-exact agreement.
  Rng rng(7);
  const index_t m = 48, n = 37, k = 53;
  const std::vector<float> a = narrowed(random_vector(m * k, rng));
  const std::vector<float> b = narrowed(random_vector(k * n, rng));
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> cref = c;
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, m, n, k, 1.0f, a.data(), m, b.data(), k,
                    0.0f, c.data(), m);
  blas::gemm_reference<float>(blas::Trans::No, blas::Trans::No, m, n, k, 1.0f, a.data(), m,
                              b.data(), k, 0.0f, cref.data(), m);
  // FMA vs separate mul+add and blocked summation reorder the accumulation;
  // the difference stays within a few ulps per term.
  const double tol = 4.0 * static_cast<double>(k) * kEps32;
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(static_cast<double>(c[i]), static_cast<double>(cref[i]), tol) << "i=" << i;
}

TEST(PrecisionKernels, DotF32MatchesF64) {
  Rng rng(3);
  for (index_t n : {index_t{9}, index_t{256}, index_t{1021}}) {
    const std::vector<double> x = random_vector(n, rng);
    const std::vector<double> y = random_vector(n, rng);
    const std::vector<float> x32 = narrowed(x), y32 = narrowed(y);
    const double d64 = blas::dot<double>(n, x.data(), y.data());
    const float d32 = blas::dot<float>(n, x32.data(), y32.data());
    EXPECT_NEAR(static_cast<double>(d32), d64, 4.0 * static_cast<double>(n) * kEps32)
        << "n=" << n;
  }
}

TEST(PrecisionKernels, AxpyF32MatchesF64) {
  Rng rng(5);
  const index_t n = 517;
  const std::vector<double> x = random_vector(n, rng);
  std::vector<double> y = random_vector(n, rng);
  std::vector<float> x32 = narrowed(x), y32 = narrowed(y);
  blas::axpy<double>(n, 0.37, x.data(), y.data());
  blas::axpy<float>(n, 0.37f, x32.data(), y32.data());
  for (index_t i = 0; i < n; ++i)
    ASSERT_NEAR(static_cast<double>(y32[static_cast<std::size_t>(i)]),
                y[static_cast<std::size_t>(i)], 8.0 * kEps32)
        << "i=" << i;
}

// ---------------------------------------------------------------------------
// fp32 laed4 against the fp64 root: the secular roots are separated by the
// pole gaps, so the fp32 root must agree to ~eps32 relative to the spread.

TEST(PrecisionLaed4, F32RootsMatchF64) {
  Rng rng(11);
  for (index_t k : {index_t{2}, index_t{5}, index_t{24}, index_t{96}}) {
    std::vector<double> d(static_cast<std::size_t>(k));
    std::vector<double> z(static_cast<std::size_t>(k));
    double acc = 0.0;
    for (index_t j = 0; j < k; ++j) {
      acc += 0.05 + rng.uniform01();  // strictly increasing with real gaps
      d[static_cast<std::size_t>(j)] = acc;
      z[static_cast<std::size_t>(j)] = 0.1 + rng.uniform01();
    }
    double znorm2 = 0.0;
    for (double zj : z) znorm2 += zj * zj;
    const double inv = 1.0 / std::sqrt(znorm2);
    for (double& zj : z) zj *= inv;
    const double rho = 0.75;
    const double spread = d.back() - d.front() + rho;

    const std::vector<float> d32v = narrowed(d), z32v = narrowed(z);
    std::vector<double> delta64(static_cast<std::size_t>(k));
    std::vector<float> delta32(static_cast<std::size_t>(k));
    for (index_t i = 0; i < k; ++i) {
      const auto r64 = lapack::laed4<double>(k, i, d.data(), z.data(), rho, delta64.data());
      const auto r32 =
          lapack::laed4<float>(k, i, d32v.data(), z32v.data(), 0.75f, delta32.data());
      ASSERT_NEAR(static_cast<double>(r32.lambda), r64.lambda, 64.0 * kEps32 * spread)
          << "k=" << k << " i=" << i;
      // Both precisions must keep the root inside its bracket.
      if (i < k - 1)
        EXPECT_LE(d[static_cast<std::size_t>(i)], r64.lambda + kEps64 * spread);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end precision modes over the five bench families (the deflation
// spectrum of Table III plus the two classic structured matrices).

struct Family {
  const char* name;
  int type;
};
constexpr Family kFamilies[] = {
    {"deflate100", 2}, {"deflate50", 3}, {"deflate20", 4},
    {"onetwoone", 10}, {"wilkinson", 11},
};

TEST(PrecisionSolve, PureF32GivesF32GradeResults) {
  const index_t n = 150;
  for (const Family& fam : kFamilies) {
    auto t = matgen::table3_matrix(fam.type, n, 5);
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::Options opt;
    opt.precision = Precision::F32;
    opt.minpart = 32;
    opt.threads = 2;
    dc::stedc_taskflow(n, d.data(), e.data(), v, opt);
    EXPECT_LT(verify::orthogonality(v), 100.0 * kEps32) << fam.name;
    EXPECT_LT(verify::reduction_residual(t, d, v), 100.0 * kEps32) << fam.name;
    EXPECT_TRUE(std::is_sorted(d.begin(), d.end())) << fam.name;
  }
}

/// The accuracy gate: F32RefineF64 must pass the *fp64* verify thresholds
/// on all five families, for both the D&C task-flow driver and MRRR.
TEST(PrecisionSolve, RefineGateTaskflowAllFamilies) {
  const index_t n = 150;
  for (const Family& fam : kFamilies) {
    auto t = matgen::table3_matrix(fam.type, n, 5);
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::Options opt;
    opt.precision = Precision::F32RefineF64;
    opt.minpart = 32;
    opt.threads = 2;
    dc::SolveStats st;
    dc::stedc_taskflow(n, d.data(), e.data(), v, opt, &st);
    EXPECT_LT(verify::orthogonality(v), 100.0 * kEps64) << fam.name;
    EXPECT_LT(verify::reduction_residual(t, d, v), 100.0 * kEps64) << fam.name;
    EXPECT_TRUE(std::is_sorted(d.begin(), d.end())) << fam.name;
    // The refinement epilogue ran over every computed eigenpair.
    EXPECT_EQ(st.refine.checked, n) << fam.name;
  }
}

TEST(PrecisionSolve, RefineGateMrrrAllFamilies) {
  const index_t n = 150;
  for (const Family& fam : kFamilies) {
    auto t = matgen::table3_matrix(fam.type, n, 5);
    std::vector<double> lam;
    Matrix v;
    mrrr::Options opt;
    opt.precision = Precision::F32RefineF64;
    opt.threads = 2;
    mrrr::Stats st;
    mrrr::mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt, &st);
    EXPECT_LT(verify::orthogonality(v), 200.0 * kEps64) << fam.name;
    EXPECT_LT(verify::reduction_residual(t, lam, v), 100.0 * kEps64) << fam.name;
    EXPECT_TRUE(std::is_sorted(lam.begin(), lam.end())) << fam.name;
    EXPECT_EQ(st.refine.checked, n) << fam.name;
  }
}

/// A 999-fold eigenvalue (type 2, n = 1000): the cluster re-extraction of
/// the refinement runs inverse iteration at one shift for every member, so
/// the shifts must be spread (dstein) for the solve to grow the whole
/// eigenspace evenly. With equal shifts the task-flow result came back with
/// orthogonality ~4e-5.
TEST(PrecisionSolve, RefineGateDegenerateClusterAtN1000) {
  const index_t n = 1000;
  const auto t = matgen::table3_matrix(2, n, 3);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  dc::Options opt;
  opt.precision = Precision::F32RefineF64;
  dc::stedc_taskflow(n, d.data(), e.data(), v, opt);
  EXPECT_LT(verify::orthogonality(v), 100.0 * kEps64);
  EXPECT_LT(verify::reduction_residual(t, d, v), 100.0 * kEps64);
  std::vector<double> lam;
  mrrr::Options mopt;
  mopt.precision = Precision::F32RefineF64;
  mrrr::mrrr_solve(n, t.d.data(), t.e.data(), lam, v, mopt);
  EXPECT_LT(verify::orthogonality(v), 200.0 * kEps64);
  EXPECT_LT(verify::reduction_residual(t, lam, v), 100.0 * kEps64);
}

TEST(PrecisionSolve, RefineReportEmptyUnderPureModes) {
  const index_t n = 80;
  auto t = matgen::table3_matrix(3, n, 9);
  for (Precision p : {Precision::F64, Precision::F32}) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::Options opt;
    opt.precision = p;
    dc::SolveStats st;
    dc::stedc_sequential(n, d.data(), e.data(), v, opt, &st);
    EXPECT_EQ(st.refine.checked, 0) << precision_name(p);
    EXPECT_EQ(st.refine.refined, 0) << precision_name(p);
  }
}

TEST(PrecisionSolve, ReportStampsPrecision) {
  const index_t n = 90;
  auto t = matgen::table3_matrix(4, n, 13);
  const struct {
    Precision p;
    const char* name;
    int bits;
  } cases[] = {{Precision::F64, "f64", 64},
               {Precision::F32, "f32", 32},
               {Precision::F32RefineF64, "f32refine", 32}};
  for (const auto& c : cases) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::Options opt;
    opt.precision = c.p;
    dc::SolveStats st;
    dc::stedc_taskflow(n, d.data(), e.data(), v, opt, &st);
    EXPECT_EQ(st.report.precision, c.name);
    EXPECT_EQ(st.report.precision_bits(), c.bits);
  }
}

TEST(PrecisionSolve, AllDriversHonourF32) {
  // Every D&C driver must route through the fp32 path, not just taskflow.
  const index_t n = 110;
  auto t = matgen::table3_matrix(10, n, 3);
  using DriverFn = void (*)(index_t, double*, double*, Matrix&, const dc::Options&,
                            dc::SolveStats*, const std::vector<int>&);
  for (int which = 0; which < 4; ++which) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::Options opt;
    opt.precision = Precision::F32;
    opt.minpart = 24;
    dc::SolveStats st;
    switch (which) {
      case 0: dc::stedc_sequential(n, d.data(), e.data(), v, opt, &st); break;
      case 1: dc::stedc_taskflow(n, d.data(), e.data(), v, opt, &st); break;
      case 2: dc::stedc_lapack_model(n, d.data(), e.data(), v, opt, &st); break;
      case 3: dc::stedc_scalapack_model(n, d.data(), e.data(), v, opt, &st); break;
    }
    EXPECT_EQ(st.report.precision, "f32") << "driver " << which;
    EXPECT_LT(verify::reduction_residual(t, d, v), 100.0 * kEps32) << "driver " << which;
  }
}

}  // namespace
}  // namespace dnc

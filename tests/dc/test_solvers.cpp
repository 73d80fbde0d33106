// End-to-end correctness of all four D&C drivers across the Table III
// matrix families, sizes, and tuning parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "../support/precision_testing.hpp"
#include "common/error.hpp"
#include "dc/api.hpp"
#include "dc/driver_common.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"
#include "verify/metrics.hpp"

namespace dnc::dc {
namespace {

enum class Driver { Seq, Taskflow, Lapack, Scalapack };

void run_driver(Driver which, index_t n, double* d, double* e, Matrix& v, const Options& opt,
                SolveStats* st = nullptr) {
  switch (which) {
    case Driver::Seq: stedc_sequential(n, d, e, v, opt, st); break;
    case Driver::Taskflow: stedc_taskflow(n, d, e, v, opt, st); break;
    case Driver::Lapack: stedc_lapack_model(n, d, e, v, opt, st); break;
    case Driver::Scalapack: stedc_scalapack_model(n, d, e, v, opt, st); break;
  }
}

void expect_good_solution(const matgen::Tridiag& t, const std::vector<double>& lam,
                          const Matrix& v, double factor = 100.0) {
  // Epsilon of the active DNC_PREC working precision (fp64 for f32refine).
  const double eps = test_support::result_eps();
  const index_t n = t.n();
  EXPECT_LT(verify::orthogonality(v), factor * eps);
  EXPECT_LT(verify::reduction_residual(t, lam, v), factor * eps);
  EXPECT_LT(verify::eigenvalue_error_vs_bisection(t, lam), factor * n * eps);
  EXPECT_TRUE(std::is_sorted(lam.begin(), lam.end()));
}

using Case = std::tuple<int /*driver*/, int /*type*/>;
class AllDrivers : public ::testing::TestWithParam<Case> {};

TEST_P(AllDrivers, SolvesTable3Type) {
  const auto [drv, type] = GetParam();
  const index_t n = 163;  // odd non-power-of-two exercises uneven splits
  auto t = matgen::table3_matrix(type, n, 77);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.minpart = 32;
  opt.nb = 48;
  opt.threads = 3;
  run_driver(static_cast<Driver>(drv), n, d.data(), e.data(), v, opt);
  expect_good_solution(t, d, v);
}

INSTANTIATE_TEST_SUITE_P(DriversTimesTypes, AllDrivers,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 2, 3, 4, 5, 7, 10, 11, 12,
                                                              14)));

TEST(Stedc, TinySizes) {
  for (index_t n : {index_t{1}, index_t{2}, index_t{3}, index_t{4}, index_t{5}}) {
    auto t = matgen::table3_matrix(10, n);
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    stedc_sequential(n, d.data(), e.data(), v, {});
    expect_good_solution(t, d, v);
  }
}

TEST(Stedc, ZeroMatrix) {
  const index_t n = 20;
  std::vector<double> d(n, 0.0), e(n - 1, 0.0);
  Matrix v;
  stedc_sequential(n, d.data(), e.data(), v, {});
  for (double x : d) EXPECT_EQ(x, 0.0);
  EXPECT_LT(verify::orthogonality(v), 1e-15);
}

TEST(Stedc, DiagonalMatrix) {
  const index_t n = 33;
  std::vector<double> d(n), e(n - 1, 0.0);
  for (index_t i = 0; i < n; ++i) d[i] = static_cast<double>((7 * i) % n);
  matgen::Tridiag t;
  t.d = d;
  t.e = e;
  Matrix v;
  stedc_sequential(n, d.data(), e.data(), v, {});
  EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
  expect_good_solution(t, d, v);
}

TEST(Stedc, NegativeCouplings) {
  // Sign of e must not matter for correctness (rho < 0 path).
  const index_t n = 90;
  auto t = matgen::onetwoone(n);
  for (index_t i = 0; i < n - 1; i += 2) t.e[i] = -t.e[i];
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.minpart = 16;
  stedc_sequential(n, d.data(), e.data(), v, opt);
  expect_good_solution(t, d, v);
}

TEST(Stedc, LargeNormScaling) {
  DNC_SKIP_IF_F32_RANGE_EXCEEDED();  // 1e150 overflows on narrowing to fp32
  const index_t n = 64;
  auto t = matgen::onetwoone(n);
  for (auto& x : t.d) x *= 1e150;
  for (auto& x : t.e) x *= 1e150;
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  stedc_sequential(n, d.data(), e.data(), v, {});
  expect_good_solution(t, d, v);
}

TEST(Stedc, SmallNormScaling) {
  DNC_SKIP_IF_F32_RANGE_EXCEEDED();  // 1e-150 flushes to zero in fp32
  const index_t n = 64;
  auto t = matgen::onetwoone(n);
  for (auto& x : t.d) x *= 1e-150;
  for (auto& x : t.e) x *= 1e-150;
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  stedc_sequential(n, d.data(), e.data(), v, {});
  expect_good_solution(t, d, v);
}

TEST(Stedc, TaskExceptionReachesCaller) {
  // Valid input never fails a leaf solve, so a fault injected into the leaf
  // holding row 17 stands in for steqr's NumericalError. The runtime-backed
  // drivers raise it inside a worker's task; it must reach this thread like
  // the serial driver's does, instead of terminating the process.
  const index_t n = 800;
  const auto t = matgen::onetwoone(n);
  detail::leaf_fault_for_tests = [](index_t i0, index_t m) {
    if (i0 <= 17 && 17 < i0 + m) throw NumericalError("injected leaf failure", 17);
  };
  const std::tuple<Driver, int> runs[] = {
      {Driver::Seq, 1}, {Driver::Taskflow, 1}, {Driver::Taskflow, 4}, {Driver::Lapack, 4}};
  for (const auto& [driver, threads] : runs) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    Options opt;
    opt.threads = threads;
    EXPECT_THROW(run_driver(driver, n, d.data(), e.data(), v, opt), NumericalError)
        << "driver " << static_cast<int>(driver) << ", " << threads << " threads";
  }
  detail::leaf_fault_for_tests = nullptr;
}

// Input contract: a NaN or Inf anywhere in (d, e) is rejected with
// InvalidArgument on the calling thread before any work, by all five
// drivers. Unchecked, such input yields NaN or wrong eigenvalues without an
// error, and MRRR's bisection never terminates on an Inf in e.
TEST(InputContract, NonFiniteEntryThrowsInvalidArgumentInEveryDriver) {
  const index_t n = 800;
  const matgen::Tridiag base = matgen::table3_matrix(4, n);
  for (const bool in_d : {true, false}) {
    matgen::Tridiag t = base;
    if (in_d)
      t.d[17] = std::nan("");
    else
      t.e[17] = std::numeric_limits<double>::infinity();
    for (int drv = 0; drv < 4; ++drv) {
      std::vector<double> d = t.d, e = t.e;
      Matrix v;
      Options opt;
      opt.threads = 4;
      EXPECT_THROW(run_driver(static_cast<Driver>(drv), n, d.data(), e.data(), v, opt),
                   InvalidArgument)
          << "driver " << drv << (in_d ? ", NaN in d" : ", Inf in e");
      // Rejected before any work: the caller's buffers are untouched.
      EXPECT_EQ(std::memcmp(d.data(), t.d.data(), n * sizeof(double)), 0) << "driver " << drv;
    }
    std::vector<double> lam;
    Matrix v;
    mrrr::Options mopt;
    mopt.threads = 4;
    EXPECT_THROW(mrrr::mrrr_solve(n, t.d.data(), t.e.data(), lam, v, mopt), InvalidArgument)
        << "mrrr" << (in_d ? ", NaN in d" : ", Inf in e");
  }
}

// The fp32 precisions narrow (d, e) before scaling, so an entry beyond
// FLT_MAX would become Inf inside the solve. Every driver rejects it on
// entry under F32 and F32RefineF64, exactly like a NaN.
TEST(InputContract, BeyondFp32RangeThrowsInvalidArgumentUnderFp32Precisions) {
  const index_t n = 800;
  const matgen::Tridiag base = matgen::table3_matrix(4, n);
  for (const Precision prec : {Precision::F32, Precision::F32RefineF64}) {
    for (const bool in_d : {true, false}) {
      matgen::Tridiag t = base;
      if (in_d)
        t.d[17] = 1e300;
      else
        t.e[17] = -1e39;
      const char* where = in_d ? ", 1e300 in d" : ", -1e39 in e";
      for (int drv = 0; drv < 4; ++drv) {
        std::vector<double> d = t.d, e = t.e;
        Matrix v;
        Options opt;
        opt.threads = 4;
        opt.precision = prec;
        EXPECT_THROW(run_driver(static_cast<Driver>(drv), n, d.data(), e.data(), v, opt),
                     InvalidArgument)
            << "driver " << drv << ", " << precision_name(prec) << where;
        EXPECT_EQ(std::memcmp(d.data(), t.d.data(), n * sizeof(double)), 0) << "driver " << drv;
      }
      std::vector<double> lam;
      Matrix v;
      mrrr::Options mopt;
      mopt.threads = 4;
      mopt.precision = prec;
      EXPECT_THROW(mrrr::mrrr_solve(n, t.d.data(), t.e.data(), lam, v, mopt), InvalidArgument)
          << "mrrr, " << precision_name(prec) << where;
    }
  }
}

TEST(Stedc, DriversAgreeOnEigenvalues) {
  // The four drivers run the same kernels with the same panel split (only
  // the schedule differs), so at the same nb they agree to the last bit,
  // eigenvectors included, under every precision.
  struct Problem {
    int type;
    index_t n;
    std::uint64_t seed;
    index_t minpart, nb;
  };
  const Problem problems[] = {
      {6, 120, 3, 25, 32}, {2, 1000, 42, 64, 128}, {4, 1000, 42, 64, 128},
      {10, 1000, 42, 64, 128}};
  for (const Problem& pb : problems) {
    const auto t = matgen::table3_matrix(pb.type, pb.n, pb.seed);
    for (const Precision prec :
         {Precision::F64, Precision::F32, Precision::F32RefineF64}) {
      SCOPED_TRACE("type " + std::to_string(pb.type) + ", n " + std::to_string(pb.n) + ", " +
                   precision_name(prec));
      Options opt;
      opt.minpart = pb.minpart;
      opt.nb = pb.nb;
      opt.threads = 4;
      opt.precision = prec;
      std::vector<double> dref = t.d, eref = t.e;
      Matrix vref;
      stedc_sequential(pb.n, dref.data(), eref.data(), vref, opt);
      for (int drv = 1; drv < 4; ++drv) {
        std::vector<double> d = t.d, e = t.e;
        Matrix v;
        run_driver(static_cast<Driver>(drv), pb.n, d.data(), e.data(), v, opt);
        EXPECT_EQ(d, dref) << "driver " << drv;
        EXPECT_EQ(std::memcmp(v.data(), vref.data(), vref.size_bytes()), 0) << "driver " << drv;
      }
    }
  }
}

TEST(Stedc, PanelSizeSweep) {
  const index_t n = 140;
  auto t = matgen::table3_matrix(5, n, 11);
  for (index_t nb : {index_t{8}, index_t{33}, index_t{64}, index_t{200}}) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    Options opt;
    opt.nb = nb;
    opt.minpart = 30;
    opt.threads = 2;
    stedc_taskflow(n, d.data(), e.data(), v, opt);
    expect_good_solution(t, d, v);
  }
}

TEST(Stedc, MinpartSweep) {
  const index_t n = 150;
  auto t = matgen::table3_matrix(4, n, 13);
  for (index_t mp : {index_t{3}, index_t{10}, index_t{64}, index_t{149}, index_t{150}}) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    Options opt;
    opt.minpart = mp;
    stedc_sequential(n, d.data(), e.data(), v, opt);
    expect_good_solution(t, d, v);
  }
}

TEST(Stedc, ExtraWorkspaceOption) {
  const index_t n = 130;
  auto t = matgen::table3_matrix(3, n, 17);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.extra_workspace = true;
  opt.threads = 4;
  opt.minpart = 24;
  opt.nb = 32;
  SolveStats st;
  stedc_taskflow(n, d.data(), e.data(), v, opt, &st);
  expect_good_solution(t, d, v);
  EXPECT_GT(st.trace.events.size(), 0u);
}

TEST(Stedc, StatsAreFilled) {
  const index_t n = 100;
  auto t = matgen::table3_matrix(2, n);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  SolveStats st;
  Options opt;
  opt.minpart = 20;
  stedc_taskflow(n, d.data(), e.data(), v, opt, &st, {1, 4, 16});
  EXPECT_EQ(st.n, n);
  EXPECT_GT(st.merges, 0);
  EXPECT_GT(st.leaves, 0);
  EXPECT_GT(st.deflation_ratio, 0.9);  // type 2 deflates nearly everything
  ASSERT_EQ(st.simulated.size(), 3u);
  // More virtual workers can never increase the simulated makespan.
  EXPECT_GE(st.simulated[0].makespan + 1e-12, st.simulated[1].makespan);
  EXPECT_GE(st.simulated[1].makespan + 1e-12, st.simulated[2].makespan);
}

TEST(Stedc, RepeatedSolveSameResult) {
  const index_t n = 80;
  auto t = matgen::table3_matrix(6, n, 21);
  std::vector<double> d1 = t.d, e1 = t.e, d2 = t.d, e2 = t.e;
  Matrix v1, v2;
  Options opt;
  opt.threads = 4;
  opt.minpart = 16;
  stedc_taskflow(n, d1.data(), e1.data(), v1, opt);
  stedc_taskflow(n, d2.data(), e2.data(), v2, opt);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(d1[i], d2[i]);  // deterministic
}

}  // namespace
}  // namespace dnc::dc

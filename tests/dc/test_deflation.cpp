#include "dc/deflation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "blas/aux.hpp"
#include "common/matrix.hpp"
#include "common/real_traits.hpp"
#include "common/rng.hpp"
#include "lapack/rotations.hpp"
#include "lapack/steqr.hpp"
#include "matgen/application.hpp"

namespace dnc::dc {
namespace {

// Builds a synthetic merge input: two "sons" with orthogonal eigenvector
// blocks (identity here, which makes z = rows of I trivial to reason about)
// and prescribed son eigenvalues.
struct MergeInput {
  Matrix q;
  std::vector<double> d;
  std::vector<double> z;
  std::vector<index_t> perm;
  index_t n1;
};

MergeInput make_input(std::vector<double> d1, std::vector<double> d2,
                      std::vector<double> zvals) {
  MergeInput in;
  in.n1 = static_cast<index_t>(d1.size());
  const index_t m = in.n1 + static_cast<index_t>(d2.size());
  in.q.resize(m, m);
  blas::laset(m, m, 0.0, 1.0, in.q.data(), m);
  in.d = d1;
  in.d.insert(in.d.end(), d2.begin(), d2.end());
  in.z = zvals;
  in.perm.resize(m);
  // sons sorted ascending already in these tests
  std::iota(in.perm.begin(), in.perm.begin() + in.n1, index_t{0});
  std::iota(in.perm.begin() + in.n1, in.perm.end(), index_t{0});
  return in;
}

TEST(Deflation, NoDeflationDistinct) {
  auto in = make_input({0.0, 1.0}, {0.5, 2.0}, {0.5, 0.5, 0.5, 0.5});
  auto res = deflate(2, 2, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
                     in.perm.data() + 2);
  EXPECT_EQ(res.k, 4);
  EXPECT_TRUE(std::is_sorted(res.dlamda.begin(), res.dlamda.end()));
  EXPECT_EQ(res.ctot[3], 0);
}

TEST(Deflation, ZeroZComponentDeflates) {
  auto in = make_input({0.0, 1.0}, {0.5, 2.0}, {0.5, 0.0, 0.5, 0.5});
  auto res = deflate(2, 2, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
                     in.perm.data() + 2);
  EXPECT_EQ(res.k, 3);
  EXPECT_EQ(res.ctot[3], 1);
  ASSERT_EQ(res.indx.size(), 4u);
  EXPECT_DOUBLE_EQ(in.d[res.indx[3]], 1.0);  // the deflated eigenvalue
}

TEST(Deflation, TinyRhoDeflatesEverything) {
  auto in = make_input({0.0, 1.0}, {0.5, 2.0}, {0.5, 0.5, 0.5, 0.5});
  auto res = deflate(2, 2, in.d.data(), in.z.data(), 1e-30, in.q.view(), in.perm.data(),
                     in.perm.data() + 2);
  EXPECT_EQ(res.k, 0);
  ASSERT_EQ(res.indx.size(), 4u);
  for (index_t g = 1; g < 4; ++g) EXPECT_LE(in.d[res.indx[g - 1]], in.d[res.indx[g]]);
}

TEST(Deflation, EqualPolesRotated) {
  // Two exactly equal eigenvalues from different sons: a Givens rotation
  // must deflate one of them and mark the survivor type 2.
  auto in = make_input({0.5, 1.0}, {0.5, 2.0}, {0.3, 0.4, 0.3, 0.4});
  auto res = deflate(2, 2, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
                     in.perm.data() + 2);
  EXPECT_EQ(res.k, 3);
  EXPECT_EQ(res.ctot[1], 1);  // one type-2 column
  EXPECT_EQ(res.ctot[3], 1);
  // The survivor's z carries the combined weight sqrt(0.3^2+0.3^2).
  bool found = false;
  for (double w : res.w)
    if (std::fabs(w - std::hypot(0.3, 0.3)) < 1e-14) found = true;
  EXPECT_TRUE(found);
}

TEST(Deflation, RotationPreservesQOrthogonality) {
  auto in = make_input({0.5, 1.0}, {0.5, 1.0}, {0.3, 0.4, 0.3, 0.4});
  deflate(2, 2, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
          in.perm.data() + 2);
  // Q columns stay orthonormal after the rotations.
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) {
      double s = 0;
      for (index_t k = 0; k < 4; ++k) s += in.q(k, i) * in.q(k, j);
      EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-14);
    }
}

TEST(Deflation, GroupedOrderIsPermutation) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const index_t n1 = 2 + static_cast<index_t>(rng.uniform_below(8));
    const index_t n2 = 2 + static_cast<index_t>(rng.uniform_below(8));
    const index_t m = n1 + n2;
    std::vector<double> d1(n1), d2(n2), z(m);
    for (auto& x : d1) x = rng.uniform_sym();
    for (auto& x : d2) x = rng.uniform_sym();
    std::sort(d1.begin(), d1.end());
    std::sort(d2.begin(), d2.end());
    double nrm = 0;
    for (auto& x : z) {
      x = rng.uniform_sym();
      nrm += x * x;
    }
    for (auto& x : z) x /= std::sqrt(nrm);
    auto in = make_input(d1, d2, z);
    auto res = deflate(n1, n2, in.d.data(), in.z.data(), 0.5 + rng.uniform01(), in.q.view(),
                       in.perm.data(), in.perm.data() + n1);
    // indx is a permutation of [0, m).
    std::vector<index_t> sorted(res.indx);
    std::sort(sorted.begin(), sorted.end());
    for (index_t i = 0; i < m; ++i) EXPECT_EQ(sorted[i], i);
    // counts consistent
    EXPECT_EQ(res.ctot[0] + res.ctot[1] + res.ctot[2], res.k);
    EXPECT_EQ(res.ctot[3], m - res.k);
    // dlamda ascending and strictly increasing
    for (index_t i = 1; i < res.k; ++i) EXPECT_GT(res.dlamda[i], res.dlamda[i - 1]);
    // rank_of maps into [0, k)
    for (index_t g = 0; g < res.k; ++g) {
      EXPECT_GE(res.rank_of[g], 0);
      EXPECT_LT(res.rank_of[g], res.k);
    }
    // non-deflated z values are above the deflation threshold
    for (double w : res.w) EXPECT_GT(std::fabs(w), 0.0);
  }
}

TEST(Deflation, TraceIsPreserved) {
  // Deflation rotations must preserve the trace of D.
  Rng rng(7);
  std::vector<double> d1{0.1, 0.1000000000000001, 0.5};
  std::vector<double> d2{0.0999999999999999, 0.7, 0.9};
  std::vector<double> z(6);
  double nrm = 0;
  for (auto& x : z) {
    x = 0.3 + 0.1 * rng.uniform01();
    nrm += x * x;
  }
  for (auto& x : z) x /= std::sqrt(nrm);
  const double trace_before =
      std::accumulate(d1.begin(), d1.end(), 0.0) + std::accumulate(d2.begin(), d2.end(), 0.0);
  auto in = make_input(d1, d2, z);
  deflate(3, 3, in.d.data(), in.z.data(), 2.0, in.q.view(), in.perm.data(), in.perm.data() + 3);
  const double trace_after = std::accumulate(in.d.begin(), in.d.end(), 0.0);
  EXPECT_NEAR(trace_before, trace_after, 1e-14);
}

/// The deflated columns in insertion-sorted order: each column inserted at
/// the upper bound of its value at the moment it deflates. Replays
/// deflate()'s classification loop on copies of d and z (the rotations
/// update d and z; Q does not affect any decision).
std::vector<index_t> insertion_sorted_deflation(index_t n1, index_t n2, std::vector<double> d,
                                                std::vector<double> z, double rho,
                                                const index_t* perm1, const index_t* perm2) {
  const index_t m = n1 + n2;
  std::vector<index_t> idx;
  index_t a = 0, b = 0;
  while (a < n1 || b < n2) {
    if (b == n2 || (a < n1 && d[perm1[a]] <= d[n1 + perm2[b]]))
      idx.push_back(perm1[a++]);
    else
      idx.push_back(n1 + perm2[b++]);
  }
  double dmax = 0, zmax = 0;
  for (index_t i = 0; i < m; ++i) {
    dmax = std::max(dmax, std::fabs(d[i]));
    zmax = std::max(zmax, std::fabs(z[i]));
  }
  const double tol = 8.0 * real_traits<double>::eps() * std::max(dmax, zmax);
  std::vector<index_t> defl;
  const auto insert = [&](index_t j) {
    defl.insert(std::upper_bound(defl.begin(), defl.end(), d[j],
                                 [&](double val, index_t p) { return val < d[p]; }),
                j);
  };
  if (rho * zmax <= tol) return idx;
  index_t held = -1;
  for (index_t j : idx) {
    if (rho * std::fabs(z[j]) <= tol) {
      insert(j);
      continue;
    }
    if (held < 0) {
      held = j;
      continue;
    }
    double s = z[held], c = z[j];
    const double tau = lapack::lapy2(c, s);
    c /= tau;
    s = -s / tau;
    if (std::fabs((d[j] - d[held]) * c * s) <= tol) {
      z[j] = tau;
      const double dh = d[held], dj = d[j];
      d[held] = dh * c * c + dj * s * s;
      d[j] = dh * s * s + dj * c * c;
      insert(held);
    }
    held = j;
  }
  return defl;
}

TEST(Deflation, DeflatedOrderMatchesInsertionSort) {
  // Rotation-heavy merge: two sons of glued Wilkinson W21+ blocks share
  // their spectra, so nearly every pair rotates across the sons.
  const matgen::Tridiag t = matgen::glued_wilkinson(21, 4, 1e-4);
  const index_t m = t.n(), n1 = m / 2;
  Matrix q(m, m);
  q.fill(0.0);
  std::vector<double> d = t.d, e = t.e;
  const double beta = e[n1 - 1];
  d[n1 - 1] -= std::fabs(beta);
  d[n1] -= std::fabs(beta);
  lapack::steqr(lapack::CompZ::Identity, n1, d.data(), e.data(), q.data(), m);
  lapack::steqr(lapack::CompZ::Identity, m - n1, d.data() + n1, e.data() + n1,
                q.data() + n1 + n1 * m, m);
  std::vector<double> z(m);
  for (index_t j = 0; j < m; ++j) z[j] = std::sqrt(0.5) * (j < n1 ? q(n1 - 1, j) : q(n1, j));
  std::vector<index_t> perm(m);
  std::iota(perm.begin(), perm.begin() + n1, index_t{0});
  std::iota(perm.begin() + n1, perm.end(), index_t{0});

  const auto expected = insertion_sorted_deflation(n1, m - n1, d, z, 2.0 * std::fabs(beta),
                                                   perm.data(), perm.data() + n1);
  const auto res = deflate(n1, m - n1, d.data(), z.data(), 2.0 * std::fabs(beta), q.view(),
                           perm.data(), perm.data() + n1);
  ASSERT_GT(res.ctot[1], 10);  // many cross-son rotations
  EXPECT_EQ(std::vector<index_t>(res.indx.begin() + res.k, res.indx.end()), expected);

  // Exact ties among deflated values, from zero z entries and from
  // rotations of equal poles: insertion order must survive.
  auto in = make_input({0.25, 0.5, 0.5, 1.0}, {0.25, 0.5, 1.0, 1.0},
                       {0.0, 0.3, 0.3, 0.0, 0.3, 0.0, 0.4, 0.4});
  const auto tied = insertion_sorted_deflation(4, 4, in.d, in.z, 1.0, in.perm.data(),
                                               in.perm.data() + 4);
  const auto rt = deflate(4, 4, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
                          in.perm.data() + 4);
  ASSERT_GE(rt.ctot[3], 4);
  EXPECT_EQ(std::vector<index_t>(rt.indx.begin() + rt.k, rt.indx.end()), tied);
}

}  // namespace
}  // namespace dnc::dc

#include "mrrr/dqds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "obs/counters.hpp"

namespace dnc::mrrr {
namespace {

/// A stretch of rows [i0, n0) split off from the rest, with its own
/// accumulated shift sigma (+ the compensation term desig) and the buffer of
/// the ping-pong pair that currently holds its qd values.
template <typename Real>
struct Segment {
  index_t i0, n0;
  Real sigma, desig;
  int buf;
};

/// Pivots of the last sweep over [i0, n0): the minimum over all rows,
/// without the last row, and without the last two; the last three pivots;
/// the smallest new off-diagonal above the last one and the largest new q.
template <typename Real>
struct Pivots {
  Real dmin, dmin1, dmin2, dn, dn1, dn2, emin, qmax;
};

/// One dqds sweep with shift tau over rows [i0, n0) of (q, e), written to
/// (qo, eo). Returns false when a pivot went negative (tau exceeded the
/// smallest eigenvalue) or non-finite.
template <typename Real>
bool sweep(const Real* q, const Real* e, Real* qo, Real* eo, index_t i0, index_t n0, Real tau,
           Pivots<Real>& p) {
  const Real big = std::numeric_limits<Real>::max();
  const index_t last = n0 - 1;
  Real d = q[i0] - tau;
  Real dmin = d, emin = big, qmax = 0;
  p.dmin2 = p.dn2 = p.dmin1 = p.dn1 = big;
  if (i0 == last - 2) p.dmin2 = p.dn2 = d;
  if (i0 == last - 1) p.dmin1 = p.dn1 = d;
  for (index_t i = i0; i < last; ++i) {
    qo[i] = d + e[i];
    qmax = std::max(qmax, qo[i]);
    const Real t = q[i + 1] / qo[i];
    eo[i] = e[i] * t;
    d = d * t - tau;
    if (d < dmin) dmin = d;
    if (i + 1 == last - 2) {
      p.dmin2 = dmin;
      p.dn2 = d;
    } else if (i + 1 == last - 1) {
      p.dmin1 = dmin;
      p.dn1 = d;
    }
    if (i + 1 < last && eo[i] < emin) emin = eo[i];
  }
  qo[last] = d;
  p.dmin = dmin;
  p.dn = d;
  p.emin = emin;
  p.qmax = qmax;
  return std::isfinite(d) && dmin >= Real(0);
}

/// Both eigenvalues of the 2 x 2 qd array (q1, e1, q2), larger first,
/// without forming squares (no overflow or cancellation).
template <typename Real>
void two_by_two(Real q1, Real e1, Real q2, Real tol2, Real& hi, Real& lo) {
  if (q2 > q1) std::swap(q1, q2);
  Real t = Real(0.5) * ((q1 - q2) + e1);
  if (e1 > q2 * tol2 && t != Real(0)) {
    Real s = q2 * (e1 / t);
    if (s <= t)
      s = q2 * (e1 / (t * (Real(1) + std::sqrt(Real(1) + s / t))));
    else
      s = q2 * (e1 / (t + std::sqrt(t) * std::sqrt(t + s)));
    t = q1 + (s + e1);
    q2 = q2 * (q1 / t);
    q1 = t;
  }
  hi = q1;
  lo = q2;
}

/// Shift for the next sweep, a lower bound of the smallest eigenvalue of
/// rows [i0, n0) estimated from the last sweep's pivots (after dlasq4).
/// `deflated` counts the rows removed from the bottom since that sweep;
/// `ramp` (the last shift was the fallback) and `g` (its fraction) carry
/// the fallback's growth between calls.
template <typename Real>
Real choose_shift(const Real* q, const Real* e, index_t i0, index_t n0, const Pivots<Real>& p,
                  index_t deflated, bool& ramp, Real& g) {
  constexpr Real kQuarter = Real(0.25), kHalf = Real(0.5), kThird = Real(1) / Real(3);
  constexpr Real kRqBound = Real(0.563), kGapMargin = Real(1.01), kSafety = Real(1.05);
  const index_t len = n0 - i0;
  const bool ramping = ramp;
  ramp = false;
  // Lower bound gam (1 - sqrt(a2)) / (1 + a2) of the eigenvalue next to the
  // pivot gam, where a2 sums the squared components of its approximate
  // eigenvector away from the bottom: the ratios e[k] / q[k] multiplied up
  // from row `from` towards the top, abandoned (fallback kept) when a ratio
  // exceeds 1.
  const auto tail_mass = [&](index_t from, Real b, Real& a2) {
    for (index_t k = from; k >= i0 && b != Real(0); --k) {
      const Real prev = b;
      if (e[k] > q[k]) return false;
      b *= e[k] / q[k];
      a2 += b;
      if (Real(100) * std::max(b, prev) < a2 || kRqBound < a2) break;
    }
    return true;
  };
  if (deflated == 0) {
    if (len >= 3 && (p.dmin == p.dn || p.dmin == p.dn1)) {
      const Real b1 = std::sqrt(q[n0 - 1]) * std::sqrt(e[n0 - 2]);
      const Real b2 = std::sqrt(q[n0 - 2]) * std::sqrt(e[n0 - 3]);
      const Real a2 = q[n0 - 2] + e[n0 - 2];
      if (p.dmin == p.dn && p.dmin1 == p.dn1) {
        // The two smallest pivots are the last two: Gershgorin-type gaps of
        // the bottom 2 x 2 separate the smallest eigenvalue.
        const Real gap2 = p.dmin2 - a2 - p.dmin2 * kQuarter;
        const Real gap1 = gap2 > Real(0) && gap2 > b2 ? a2 - p.dn - (b2 / gap2) * b2
                                                      : a2 - p.dn - (b1 + b2);
        if (gap1 > Real(0) && gap1 > b1) return std::max(p.dn - (b1 / gap1) * b1, kHalf * p.dmin);
        Real s = p.dn > b1 ? p.dn - b1 : Real(0);
        if (a2 > b1 + b2) s = std::min(s, a2 - (b1 + b2));
        return std::max(s, kThird * p.dmin);
      }
      // Rayleigh-quotient residual bound around the smallest pivot.
      const Real fallback = kQuarter * p.dmin;
      Real gam, a2sum, b;
      index_t from;
      if (p.dmin == p.dn) {
        gam = p.dn;
        a2sum = 0;
        if (e[n0 - 2] > q[n0 - 2]) return fallback;
        b = e[n0 - 2] / q[n0 - 2];
        from = n0 - 3;
      } else {
        gam = p.dn1;
        if (e[n0 - 2] > q[n0 - 1] || e[n0 - 3] > q[n0 - 3]) return fallback;
        a2sum = e[n0 - 2] / q[n0 - 1];
        b = e[n0 - 3] / q[n0 - 3];
        from = n0 - 4;
      }
      a2sum += b;
      if (!tail_mass(from, b, a2sum)) return fallback;
      a2sum *= kSafety;
      return a2sum < kRqBound ? gam * (Real(1) - std::sqrt(a2sum)) / (Real(1) + a2sum)
                              : fallback;
    }
    if (len >= 4 && p.dmin == p.dn2) {
      // The same bound around the third-last pivot.
      const Real fallback = kQuarter * p.dmin;
      if (e[n0 - 3] > q[n0 - 2] || e[n0 - 2] > q[n0 - 1]) return fallback;
      Real a2sum = (e[n0 - 3] / q[n0 - 2]) * (Real(1) + e[n0 - 2] / q[n0 - 1]);
      if (e[n0 - 4] > q[n0 - 4]) return fallback;
      const Real b = e[n0 - 4] / q[n0 - 4];
      a2sum += b;
      if (!tail_mass(n0 - 5, b, a2sum)) return fallback;
      a2sum *= kSafety;
      return a2sum < kRqBound ? p.dn2 * (Real(1) - std::sqrt(a2sum)) / (Real(1) + a2sum)
                              : fallback;
    }
    // No structure to exploit: a growing fraction of the smallest pivot.
    g = ramping ? g + kThird * (Real(1) - g) : kQuarter;
    ramp = true;
    return g * p.dmin;
  }
  if (deflated == 1) {
    // The last row converged: its neighbours' pivots now bound the bottom.
    if (p.dmin1 == p.dn1 && p.dmin2 == p.dn2) {
      const Real s = kThird * p.dmin1;
      if (e[n0 - 2] > q[n0 - 2]) return s;
      const Real b1 = e[n0 - 2] / q[n0 - 2];
      Real b2 = b1;
      if (!tail_mass(n0 - 3, b1, b2)) return s;
      b2 = std::sqrt(kSafety * b2);
      const Real a2 = p.dmin1 / (Real(1) + b2 * b2);
      const Real gap2 = kHalf * p.dmin2 - a2;
      if (gap2 > Real(0) && gap2 > b2 * a2)
        return std::max(s, a2 * (Real(1) - kGapMargin * a2 * (b2 / gap2) * b2));
      return std::max(s, a2 * (Real(1) - kGapMargin * b2));
    }
    return p.dmin1 == p.dn1 ? kHalf * p.dmin1 : kQuarter * p.dmin1;
  }
  // Two rows converged at once (rare): stay well below the new bottom;
  // after more, the old pivots say nothing and the sweep goes unshifted.
  return deflated == 2 ? kQuarter * p.dmin2 : Real(0);
}

}  // namespace

template <typename Real>
std::vector<Real> dqds(std::vector<Real> q, std::vector<Real> e, index_t max_sweeps) {
  const index_t n = static_cast<index_t>(q.size());
  DNC_REQUIRE(n >= 1 && static_cast<index_t>(e.size()) == n - 1,
              "dqds: q needs n >= 1 entries and e n-1");
  for (index_t i = 0; i < n; ++i)
    DNC_REQUIRE(q[i] > Real(0) && std::isfinite(q[i]), "dqds: q[" + std::to_string(i) +
                                                           "] is not positive and finite");
  for (index_t i = 0; i + 1 < n; ++i)
    DNC_REQUIRE(e[i] >= Real(0) && std::isfinite(e[i]),
                "dqds: e[" + std::to_string(i) + "] is not non-negative and finite");
  if (max_sweeps <= 0) max_sweeps = 30 * n;

  // Deflation and splitting threshold (dlasq2): an off-diagonal below tol^2
  // times its row's scale perturbs the eigenvalues by O(tol^2) relatively.
  const Real tol = Real(100) * real_traits<Real>::eps();
  const Real tol2 = tol * tol;
  // A failed shift is retried this many times, shrinking, before the
  // unshifted sweep, which cannot fail in exact arithmetic.
  constexpr int kShiftRetries = 4;

  e.push_back(Real(0));  // both buffers hold n entries
  std::vector<Real> qb[2] = {std::move(q), std::vector<Real>(n)};
  std::vector<Real> eb[2] = {std::move(e), std::vector<Real>(n)};
  std::vector<Real> lam;
  lam.reserve(n);
  std::vector<Segment<Real>> todo{{0, n, Real(0), Real(0), 0}};
  index_t sweeps = 0;

  while (!todo.empty()) {
    Segment<Real> s = todo.back();
    todo.pop_back();
    const auto emit = [&](Real x) { lam.push_back(s.sigma + (x + s.desig)); };
    // Split off the bottom unreduced stretch; the rest waits on the stack.
    {
      const Real* qa = qb[s.buf].data();
      const Real* ea = eb[s.buf].data();
      for (index_t k = s.n0 - 2; k >= s.i0; --k) {
        if (ea[k] <= tol2 * qa[k] || ea[k] <= tol2 * s.sigma) {
          todo.push_back({s.i0, k + 1, s.sigma, s.desig, s.buf});
          s.i0 = k + 1;
          break;
        }
      }
    }
    Pivots<Real> piv{};
    bool fresh = true;  // no sweep since the segment (re)started
    index_t deflated = 0;
    bool ramp = false;
    Real g = 0;
    while (true) {
      Real* qa = qb[s.buf].data();
      Real* ea = eb[s.buf].data();
      // Bottom deflation: 1 x 1 while the last off-diagonal is negligible,
      // 2 x 2 in closed form when the one above it is.
      while (s.n0 > s.i0) {
        const index_t m = s.n0;
        if (m - s.i0 == 1) {
          emit(qa[m - 1]);
          s.n0 = m - 1;
          ++deflated;
        } else if (ea[m - 2] <= tol2 * (s.sigma + qa[m - 1]) || ea[m - 2] <= tol2 * qa[m - 2]) {
          emit(qa[m - 1]);
          s.n0 = m - 1;
          ++deflated;
        } else if (m - s.i0 == 2 || ea[m - 3] <= tol2 * s.sigma || ea[m - 3] <= tol2 * qa[m - 3]) {
          Real hi, lo;
          two_by_two(qa[m - 2], ea[m - 2], qa[m - 1], tol2, hi, lo);
          emit(hi);
          emit(lo);
          s.n0 = m - 2;
          deflated += 2;
        } else {
          break;
        }
      }
      if (s.n0 <= s.i0) break;
      // Convergence is at the bottom: keep the small end of the array there.
      if ((fresh || deflated > 0) && Real(1.5) * qa[s.i0] < qa[s.n0 - 1]) {
        std::reverse(qa + s.i0, qa + s.n0);
        std::reverse(ea + s.i0, ea + s.n0 - 1);
        fresh = true;
      }

      Real tau = fresh ? Real(0)
                       : choose_shift(qa, ea, s.i0, s.n0, piv, deflated, ramp, g);
      Real* qo = qb[1 - s.buf].data();
      Real* eo = eb[1 - s.buf].data();
      for (int attempt = 0;; ++attempt) {
        if (attempt == kShiftRetries) tau = Real(0);
        if (sweep(qa, ea, qo, eo, s.i0, s.n0, tau, piv)) break;
        // A negative last pivot with a converged bottom row is rounding in
        // the eigenvalue the shift just reached (dlasq3): accept it as zero.
        const index_t last = s.n0 - 1;
        if (std::isfinite(piv.dn) && piv.dn < Real(0) && piv.dmin1 > Real(0) &&
            eo[last - 1] < tol * (s.sigma + piv.dn1) && std::fabs(piv.dn) < tol * s.sigma) {
          qo[last] = Real(0);
          piv.dn = piv.dmin = Real(0);
          break;
        }
        if (tau == Real(0))
          throw NumericalError("dqds: unshifted sweep failed", static_cast<long>(s.n0));
        // Failed only at the last pivot: tau overshot by about -dn.
        const bool last_only = std::isfinite(piv.dn) && piv.dmin1 > Real(0) && piv.dn < Real(0);
        tau = last_only ? (tau + piv.dn) * (Real(1) - Real(2) * real_traits<Real>::eps())
                        : Real(0.25) * tau;
        if (!(tau > Real(0))) tau = Real(0);
        ramp = false;
      }
      if (++sweeps > max_sweeps)
        throw NumericalError("dqds: no convergence after " + std::to_string(max_sweeps) +
                                 " sweeps",
                             static_cast<long>(s.n0));
      // sigma += tau, compensated.
      if (tau < s.sigma) {
        s.desig += tau;
        const Real t = s.sigma + s.desig;
        s.desig -= t - s.sigma;
        s.sigma = t;
      } else {
        const Real t = s.sigma + tau;
        s.desig = s.sigma - (t - tau) + s.desig;
        s.sigma = t;
      }
      s.buf = 1 - s.buf;
      fresh = false;
      deflated = 0;
      // An interior off-diagonal became negligible: split there.
      if (piv.emin <= tol2 * std::max(s.sigma, piv.qmax)) {
        for (index_t k = s.n0 - 3; k >= s.i0; --k) {
          if (eo[k] <= tol2 * qo[k] || eo[k] <= tol2 * s.sigma) {
            todo.push_back({s.i0, k + 1, s.sigma, s.desig, s.buf});
            s.i0 = k + 1;
            fresh = true;
            break;
          }
        }
      }
    }
  }
  obs::bump(obs::kDqdsSweeps, static_cast<std::uint64_t>(sweeps));
  std::sort(lam.begin(), lam.end());
  return lam;
}

template <typename Real>
std::vector<Real> dqds_eigenvalues(const RepresentationT<Real>& rep, index_t max_sweeps) {
  const index_t n = rep.n();
  std::vector<Real> q(rep.d.begin(), rep.d.end()), e(n > 0 ? n - 1 : 0);
  for (index_t i = 0; i + 1 < n; ++i) e[i] = rep.l[i] * rep.l[i] * rep.d[i];
  return dqds(std::move(q), std::move(e), max_sweeps);
}

#define DNC_INSTANTIATE_DQDS(Real)                                                     \
  template std::vector<Real> dqds<Real>(std::vector<Real>, std::vector<Real>, index_t); \
  template std::vector<Real> dqds_eigenvalues<Real>(const RepresentationT<Real>&, index_t);

DNC_INSTANTIATE_DQDS(double)
DNC_INSTANTIATE_DQDS(float)

#undef DNC_INSTANTIATE_DQDS

}  // namespace dnc::mrrr

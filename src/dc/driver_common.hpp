// Shared scaffolding for the D&C drivers: boundary adjustment of the
// partition, leaf solves, final sorting, and the precision dispatch that
// narrows an fp64 problem to the fp32 fast path (and widens + optionally
// refines the results). Internal header.
#pragma once

#include <vector>

#include "dc/api.hpp"
#include "dc/merge.hpp"
#include "dc/tune.hpp"
#include "lapack/refine.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"

namespace dnc::dc::detail {

/// Stamps the solve parameters a tuning sweep needs onto the trace before
/// export: problem size, panel width, and working precision become
/// meta_counters/meta_strings so `dnc_tune` can group recorded traces into
/// (n, precision, workers) cells without side-channel bookkeeping.
inline void stamp_trace_meta(rt::Trace& trace, index_t n, const Options& opt) {
  trace.meta_counters.emplace_back("n", static_cast<double>(n));
  trace.meta_counters.emplace_back("nb", static_cast<double>(opt.nb));
  trace.meta_strings.emplace_back("precision", precision_name(opt.precision));
}

/// Scheduling priority of a D&C task: deeper merge-tree levels outrank
/// shallower ones (leaves are deepest, the root is level 0) so subtrees
/// retire and unlock their joins early, and within a level the join
/// kernels (Deflate, ReduceW -- the serial bottleneck of every merge)
/// outrank the panel fan-out so the critical path drains first. The result
/// fits the scheduler's [0, 63] priority buckets.
inline int task_priority(int level, bool join) {
  if (level < 0) level = 0;
  if (level > 30) level = 30;
  return 2 * level + (join ? 1 : 0);
}

/// Trivial sizes handled without the machinery. Returns true if done.
template <typename Real>
bool solve_trivial(index_t n, Real* d, Real* e, MatrixT<Real>& v);

/// Applies Cuppen's boundary modification: for every internal node, the
/// two diagonal entries adjacent to the split lose |e_split| (see
/// DESIGN.md for why the absolute value is correct for both signs).
template <typename Real>
void adjust_boundaries(const Plan& plan, Real* d, const Real* e);

/// Solves one leaf with steqr into the node's block of v; perm gets the
/// identity (steqr sorts ascending).
template <typename Real>
void solve_leaf(const TreeNode& node, Real* d, Real* e, MatrixT<Real>& v, index_t* perm);

/// Test-only fault injection, null in every real run: when set, solve_leaf
/// calls it with the leaf's first row and size before steqr. Valid input
/// never fails a leaf, so a throw from it stands in for a numerical failure
/// raised inside a worker's task.
extern void (*leaf_fault_for_tests)(index_t i0, index_t m);

/// Applies the root permutation in place: afterwards d[r] and column r of
/// v are the old d[perm[r]] and column perm[r]. Follows the cycles of perm
/// with one column of scratch, so a column already in place is not
/// touched and a cycle of length L costs L + 1 column copies.
template <typename Real>
void sort_eigenpairs(index_t n, Real* d, MatrixT<Real>& v, const index_t* perm);

/// Builds the merge contexts for every internal node of the plan, indexed
/// like plan.nodes (leaves get nullptr).
template <typename Real>
std::vector<std::unique_ptr<MergeContextT<Real>>> make_contexts(const Plan& plan,
                                                                const Real* e, index_t nb);

/// Accumulates deflation statistics over the contexts.
template <typename Real>
void fill_stats(const Plan& plan,
                const std::vector<std::unique_ptr<MergeContextT<Real>>>& ctxs,
                SolveStats* stats);

/// Observability epilogue shared by all drivers: finishes the SolveReport
/// (counter deltas from `scope`, per-merge deflation records from the
/// contexts, scheduler metrics from `trace` when non-null) into
/// stats->report -- or a local report when stats is null -- and writes the
/// $DNC_TRACE / $DNC_REPORT artifacts when those are requested. `prec`
/// stamps the solve precision on the report; the byte accounting scales
/// with sizeof(Real).
template <typename Real>
void finish_report(const obs::SolveScope& scope,
                   const std::vector<std::unique_ptr<MergeContextT<Real>>>& ctxs, index_t n,
                   int threads, double seconds, const rt::Trace* trace, SolveStats* stats,
                   Precision prec);

/// Precision dispatch + always-on telemetry epilogue shared by the public
/// driver entry points. `solve` is a generic callable
/// solve(Real* d, Real* e, MatrixT<Real>& v, SolveStats* st) running the
/// driver body at the deduced precision; `st` is the caller's stats or, when
/// the caller passed none but DNC_METRICS/DNC_FLIGHT want per-solve data, a
/// local substitute (the report has to exist for telemetry to record it).
///
///   F64           solve(d, e, v, st) on the caller's buffers, unchanged.
///   F32           narrow d/e to fp32, solve, widen eigenvalues + vectors.
///   F32RefineF64  as F32, but the ORIGINAL fp64 tridiagonal is saved
///                 before the solve destroys it (scaling + Cuppen boundary
///                 adjustment) and every returned eigenpair is polished to
///                 fp64-grade residuals by Rayleigh-quotient iteration.
///
/// Non-finite input -- beyond FLT_MAX under the fp32 precisions -- is
/// rejected with InvalidArgument before any work.
/// After the solve (and refinement), the health probe -- armed with the
/// fp64 tridiagonal snapshotted on entry -- checks sampled eigenpairs, and
/// the report goes to the metrics registry / flight recorder. With both
/// gates off this adds two relaxed loads to a solve.
template <typename SolveFn>
void run_with_precision(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                        SolveStats* stats, SolveFn&& solve) {
  require_finite_tridiagonal(n, d, e, "stedc", opt.precision != Precision::F64);
  const bool telemetry = obs::solve_telemetry_wanted() && n > 0;
  // A reused SolveStats must not leak the previous solve's refinement
  // epilogue into a run that never refines (the F64/F32 paths below skip it).
  if (stats) stats->refine = lapack::RefineReport{};
  SolveStats local;
  SolveStats* st = stats ? stats : (telemetry ? &local : nullptr);
  obs::HealthProbe probe;
  if (telemetry) probe.arm(n, d, e);
  if (opt.precision == Precision::F64 || n <= 0) {
    solve(d, e, v, st);
  } else {
    std::vector<double> d64, e64;
    if (opt.precision == Precision::F32RefineF64) {
      d64.assign(d, d + n);
      if (n > 1) e64.assign(e, e + n - 1);
    }
    std::vector<float> d32(d, d + n);
    std::vector<float> e32;
    if (n > 1) e32.assign(e, e + n - 1);
    MatrixT<float> v32;
    solve(d32.data(), e32.data(), v32, st);
    for (index_t i = 0; i < n; ++i) d[i] = static_cast<double>(d32[i]);
    v.resize(v32.rows(), v32.cols());
    for (index_t j = 0; j < v32.cols(); ++j) {
      const float* src = v32.data() + j * v32.ld();
      double* dst = v.data() + j * v.ld();
      for (index_t i = 0; i < v32.rows(); ++i) dst[i] = static_cast<double>(src[i]);
    }
    if (opt.precision == Precision::F32RefineF64) {
      const lapack::RefineReport rr = lapack::refine_eigenpairs(
          n, d64.data(), e64.data(), d, v.data(), v.ld(), v.cols());
      if (st) st->refine = rr;
    }
  }
  if (telemetry && st) {
    // d now holds the ascending eigenvalues, v the eigenvectors.
    st->report.health = probe.evaluate(d, v.data(), v.ld(), v.cols());
    st->report.has_health = st->report.health.sampled_columns > 0;
    obs::record_solve_telemetry(st->report,
                                st->report.has_scheduler ? &st->trace : nullptr);
  }
}

}  // namespace dnc::dc::detail

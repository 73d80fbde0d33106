#include <algorithm>
#include <cmath>
#include <memory>

#include "blas/aux.hpp"
#include "blas/level1.hpp"
#include "blas/simd/kernels.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "dc/api.hpp"
#include "dc/driver_common.hpp"
#include "lapack/scale.hpp"
#include "lapack/steqr.hpp"

namespace dnc::dc {
namespace detail {

template <typename Real>
bool solve_trivial(index_t n, Real* d, Real* e, MatrixT<Real>& v) {
  DNC_REQUIRE(n >= 0, "stedc: n must be >= 0");
  if (n > 2) return false;
  v.resize(n, n);
  if (n == 0) return true;
  // steqr handles n = 1, 2 directly (and sorts).
  lapack::steqr(lapack::CompZ::Identity, n, d, e, v.data(), std::max<index_t>(1, n));
  return true;
}

template <typename Real>
void adjust_boundaries(const Plan& plan, Real* d, const Real* e) {
  for (const TreeNode& node : plan.nodes) {
    if (node.leaf()) continue;
    const index_t split = node.i0 + node.n1 - 1;  // coupling e[split]
    const Real b = std::fabs(e[split]);
    d[split] -= b;
    d[split + 1] -= b;
  }
}

void (*leaf_fault_for_tests)(index_t, index_t) = nullptr;

template <typename Real>
void solve_leaf(const TreeNode& node, Real* d, Real* e, MatrixT<Real>& v, index_t* perm) {
  if (leaf_fault_for_tests) leaf_fault_for_tests(node.i0, node.m);
  lapack::steqr(lapack::CompZ::Identity, node.m, d + node.i0,
                node.m > 1 ? e + node.i0 : nullptr,
                v.data() + node.i0 + node.i0 * v.ld(), v.ld());
  for (index_t r = 0; r < node.m; ++r) perm[node.i0 + r] = r;
}

template <typename Real>
void sort_eigenpairs(index_t n, Real* d, MatrixT<Real>& v, const index_t* perm,
                     WorkspaceT<Real>& ws) {
  std::vector<Real> dsorted(n);
  for (index_t r = 0; r < n; ++r) {
    dsorted[r] = d[perm[r]];
    blas::copy(n, v.data() + perm[r] * v.ld(), ws.qwork.data() + r * ws.qwork.ld());
  }
  blas::copy(n, dsorted.data(), d);
  blas::lacpy(n, n, ws.qwork.data(), ws.qwork.ld(), v.data(), v.ld());
}

template <typename Real>
std::vector<std::unique_ptr<MergeContextT<Real>>> make_contexts(const Plan& plan,
                                                                const Real* e, index_t nb) {
  std::vector<std::unique_ptr<MergeContextT<Real>>> ctxs(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const TreeNode& node = plan.nodes[i];
    if (node.leaf()) continue;
    ctxs[i] = std::make_unique<MergeContextT<Real>>(node, e, nb);
  }
  return ctxs;
}

template <typename Real>
void fill_stats(const Plan& plan,
                const std::vector<std::unique_ptr<MergeContextT<Real>>>& ctxs,
                SolveStats* stats) {
  if (stats == nullptr) return;
  stats->merges = 0;
  stats->leaves = plan.leaf_count;
  index_t total_m = 0, total_defl = 0;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    if (!ctxs[i]) continue;
    ++stats->merges;
    total_m += ctxs[i]->node.m;
    total_defl += ctxs[i]->node.m - ctxs[i]->defl.k;
    if (static_cast<index_t>(i) == plan.root) stats->root_k = ctxs[i]->defl.k;
  }
  stats->deflation_ratio = total_m > 0 ? static_cast<double>(total_defl) / total_m : 0.0;
}

template <typename Real>
void finish_report(const obs::SolveScope& scope,
                   const std::vector<std::unique_ptr<MergeContextT<Real>>>& ctxs, index_t n,
                   int threads, double seconds, const rt::Trace* trace, SolveStats* stats,
                   Precision prec) {
  const bool want_export = obs::trace_export_requested() || obs::report_export_requested();
  if (stats == nullptr && !want_export) return;
  obs::SolveReport local;
  obs::SolveReport& rep = stats ? stats->report : local;
  // The dispatched kernel table is authoritative (DNC_SIMD and in-process
  // overrides included); the scope would otherwise fall back to the env.
  rep.simd_isa = blas::simd::kernels_t<Real>().name;
  rep.precision = precision_name(prec);
  scope.finish(rep, n, threads, seconds, trace);
  // Record whether (and which) DNC_TUNE_TABLE entry configured this solve.
  tune::stamp_report(rep);
  // Workspace telemetry: the solve-wide scratch (Workspace: n x n qwork +
  // 2n x n xwork), the n x n eigenvector output, and the per-merge contexts
  // (z + zhat + the m x npanels partial-product matrix each). All of it is
  // allocated at the working precision, so fp32 solves report half the
  // fp64 bytes.
  rep.memory.workspace_bytes =
      3u * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) * sizeof(Real);
  rep.memory.output_bytes =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) * sizeof(Real);
  rep.memory.context_bytes = 0;  // accumulated below; keep per-solve on report reuse
  for (const auto& ctx : ctxs) {
    if (!ctx) continue;
    const std::uint64_t m = static_cast<std::uint64_t>(ctx->node.m);
    rep.memory.context_bytes +=
        (2u * m + m * static_cast<std::uint64_t>(ctx->npanels)) * sizeof(Real);
  }
  rep.merges.clear();  // reused reports must not accumulate merge records
  for (const auto& ctx : ctxs) {
    if (!ctx) continue;
    obs::MergeRecord mr;
    mr.level = ctx->node.level;
    mr.m = ctx->node.m;
    mr.n1 = ctx->node.n1;
    mr.k = ctx->defl.k;
    for (int t = 0; t < 4; ++t) mr.ctot[t] = ctx->defl.ctot[t];
    mr.t_end = ctx->t_deflate_end;
    rep.merges.push_back(mr);
  }
  if (want_export) obs::export_solve_artifacts(rep, trace);
}

#define DNC_INSTANTIATE_DRIVER_COMMON(Real)                                                  \
  template bool solve_trivial<Real>(index_t, Real*, Real*, MatrixT<Real>&);                  \
  template void adjust_boundaries<Real>(const Plan&, Real*, const Real*);                    \
  template void solve_leaf<Real>(const TreeNode&, Real*, Real*, MatrixT<Real>&, index_t*);   \
  template void sort_eigenpairs<Real>(index_t, Real*, MatrixT<Real>&, const index_t*,        \
                                      WorkspaceT<Real>&);                                    \
  template std::vector<std::unique_ptr<MergeContextT<Real>>> make_contexts<Real>(            \
      const Plan&, const Real*, index_t);                                                    \
  template void fill_stats<Real>(                                                            \
      const Plan&, const std::vector<std::unique_ptr<MergeContextT<Real>>>&, SolveStats*);   \
  template void finish_report<Real>(const obs::SolveScope&,                                  \
                                    const std::vector<std::unique_ptr<MergeContextT<Real>>>&, \
                                    index_t, int, double, const rt::Trace*, SolveStats*,     \
                                    Precision)

DNC_INSTANTIATE_DRIVER_COMMON(double);
DNC_INSTANTIATE_DRIVER_COMMON(float);

#undef DNC_INSTANTIATE_DRIVER_COMMON

}  // namespace detail

namespace {

template <typename Real>
void stedc_sequential_impl(index_t n, Real* d, Real* e, MatrixT<Real>& v, const Options& opt,
                           SolveStats* stats) {
  Stopwatch sw;
  obs::SolveScope scope("sequential");
  if (stats) *stats = SolveStats{};
  if (detail::solve_trivial(n, d, e, v)) {
    if (stats) {
      stats->n = n;
      stats->seconds = sw.elapsed();
    }
    return;
  }
  v.resize(n, n);
  v.fill(Real(0));

  const Real orgnrm = lapack::scale_problem(n, d, e);
  if (orgnrm == Real(0)) {
    // Zero matrix: eigenvalues are the (zero) diagonal, vectors identity.
    blas::laset(n, n, Real(0), Real(1), v.data(), v.ld());
    std::sort(d, d + n);
    if (stats) {
      stats->n = n;
      stats->seconds = sw.elapsed();
    }
    return;
  }

  const Plan plan = build_plan(n, opt.minpart);
  WorkspaceT<Real> ws(n);
  auto ctxs = detail::make_contexts(plan, e, opt.nb);
  std::vector<index_t> perm(n);

  detail::adjust_boundaries(plan, d, e);
  // plan.nodes is post-order: every node appears after its sons.
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const TreeNode& node = plan.nodes[i];
    if (node.leaf()) {
      detail::solve_leaf(node, d, e, v, perm.data());
    } else {
      merge_sequential(*ctxs[i], v, ws, d + node.i0, perm.data() + node.i0, opt.nb);
    }
  }
  detail::sort_eigenpairs(n, d, v, perm.data() + plan.nodes[plan.root].i0, ws);
  lapack::unscale_eigenvalues(n, d, orgnrm);

  detail::fill_stats(plan, ctxs, stats);
  if (stats) {
    stats->n = n;
    stats->seconds = sw.elapsed();
  }
  detail::finish_report(scope, ctxs, n, /*threads=*/1, sw.elapsed(), nullptr, stats,
                        opt.precision);
}

}  // namespace

void stedc_sequential(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                      SolveStats* stats) {
  Options topt = opt;
  tune::apply_env_tuning(topt, n);
  detail::run_with_precision(n, d, e, v, topt, stats,
                             [&](auto* dd, auto* ee, auto& vv, SolveStats* st) {
                               stedc_sequential_impl(n, dd, ee, vv, topt, st);
                             });
}

}  // namespace dnc::dc

// The paper's contribution: the D&C tridiagonal eigensolver expressed as a
// sequential task flow, scheduled out-of-order by the QUARK-like runtime.
//
// Task structure per merge (Algorithm 1 / Figure 2 of the paper):
//
//   Compute deflation                       (join, INOUT node block)
//   per panel p: PermuteV -> LAED4 -> ComputeLocalW   (GATHERV block,
//                                            chained through a panel handle)
//   ReduceW                                 (join, INOUT node block)
//   per panel p: CopyBackDeflated -> ComputeVect -> UpdateVect
//
// Independent merges (different branches of the tree) share no handles and
// therefore overlap freely; merges on the same branch are ordered through
// the sons' block handles. With opt.extra_workspace the PermuteV/LAED4 and
// CopyBack/ComputeVect pairs use distinct panel handles and run
// concurrently, the paper's extra-workspace option.
#include <memory>

#include "blas/aux.hpp"
#include "blas/level1.hpp"
#include "common/timer.hpp"
#include "dc/api.hpp"
#include "dc/driver_common.hpp"
#include "dc/task_kinds.hpp"
#include "lapack/scale.hpp"
#include "runtime/dot.hpp"
#include "runtime/engine.hpp"

namespace dnc::dc {
namespace {

template <typename Real>
void stedc_taskflow_impl(index_t n, Real* d, Real* e, MatrixT<Real>& v, const Options& opt,
                         SolveStats* stats, const std::vector<int>& simulate_workers) {
  Stopwatch sw;
  obs::SolveScope scope("taskflow");
  if (stats) *stats = SolveStats{};
  if (detail::solve_trivial(n, d, e, v)) {
    if (stats) {
      stats->n = n;
      stats->seconds = sw.elapsed();
    }
    return;
  }
  v.resize(n, n);

  const Plan plan = build_plan(n, opt.minpart);
  WorkspaceT<Real> ws(n);
  auto ctxs = detail::make_contexts(plan, e, opt.nb);
  std::vector<index_t> perm(n);
  const index_t nb = opt.nb;

  rt::TaskGraph graph;
  const Kinds K(graph);
  // One handle per tree node (its eigenvector block + eigenvalue range),
  // one or two per (node, panel) for intra-panel chaining, one for the
  // scale/partition prologue, one per sort panel.
  rt::Handle hT("T");
  std::vector<rt::Handle> hblock(plan.nodes.size());
  std::vector<std::vector<rt::Handle>> hpanel(plan.nodes.size());
  std::vector<std::vector<rt::Handle>> hpanel2(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    if (ctxs[i]) {
      hpanel[i].resize(ctxs[i]->npanels);
      if (opt.extra_workspace) hpanel2[i].resize(ctxs[i]->npanels);
    }
  }
  const index_t nsortpanels = (n + nb - 1) / nb;
  std::vector<rt::Handle> hsort(nsortpanels);

  Real orgnrm = 0;
  std::vector<Real> dsorted(n);

  rt::Runtime runtime(graph, opt.threads);

  // --- prologue ---
  graph.submit(K.scale, [&, n] { orgnrm = lapack::scale_problem(n, d, e); },
               {{&hT, rt::Access::InOut}});
  graph.submit(K.partition, [&] { detail::adjust_boundaries(plan, d, e); },
               {{&hT, rt::Access::InOut}});
  // Zero-fill V by column panels (the LASET tasks of the paper's Table II).
  for (index_t p = 0; p < nsortpanels; ++p) {
    graph.submit(K.laset,
                 [&, p, nb, n] {
                   const index_t j0 = p * nb;
                   const index_t w = std::min(nb, n - j0);
                   blas::laset(n, w, Real(0), Real(0), v.data() + j0 * v.ld(), v.ld());
                 },
                 {{&hT, rt::Access::GatherV}});
  }

  // --- leaves and merges, bottom-up (post-order submission) ---
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const TreeNode& node = plan.nodes[i];
    if (node.leaf()) {
      graph
          .submit(K.stedc, [&, node] { detail::solve_leaf(node, d, e, v, perm.data()); },
                  {{&hT, rt::Access::In}, {&hblock[i], rt::Access::InOut}},
                  detail::task_priority(node.level, false))
          ->annotate(node.level, node.m);
      continue;
    }
    MergeContextT<Real>* ctx = ctxs[i].get();
    const index_t i0 = node.i0;
    graph
        .submit(K.deflate,
                [&, ctx, i0] {
                  MatrixViewT<Real> qb = ctx->qblock(v);
                  run_deflation(*ctx, qb, d + i0, perm.data() + i0);
                },
                {{&hblock[node.son1], rt::Access::InOut},
                 {&hblock[node.son2], rt::Access::InOut},
                 {&hblock[i], rt::Access::InOut}},
                detail::task_priority(node.level, true))
        ->annotate(node.level, node.m);

    for (index_t p = 0; p < ctx->npanels; ++p) {
      const index_t j0 = p * nb;
      const index_t j1 = std::min(j0 + nb, node.m);
      rt::Handle* hp = &hpanel[i][p];
      rt::Handle* hp2 = opt.extra_workspace ? &hpanel2[i][p] : hp;
      graph
          .submit(K.permute,
                  [&, ctx, j0, j1] {
                    permute_panel(ctx->defl, ctx->qblock(v), ctx->w1(ws), ctx->w2(ws),
                                  ctx->wdefl(ws), j0, j1);
                  },
                  {{&hblock[i], rt::Access::GatherV}, {hp, rt::Access::InOut}},
                  detail::task_priority(node.level, false))
          ->annotate(node.level, node.m, p);
      graph
          .submit(K.laed4,
                  [&, ctx, i0, j0, j1] {
                    secular_solve_panel(ctx->defl, j0, j1, d + i0, ctx->deltam(ws));
                  },
                  {{&hblock[i], rt::Access::GatherV}, {hp2, rt::Access::InOut}},
                  detail::task_priority(node.level, false))
          ->annotate(node.level, node.m, p);
      graph
          .submit(K.localw,
                  [&, ctx, p, j0, j1] {
                    zhat_local_panel(ctx->defl, ctx->deltam(ws), j0, j1,
                                     ctx->wparts.data() + p * ctx->wparts.ld());
                  },
                  {{&hblock[i], rt::Access::GatherV},
                   {hp, rt::Access::InOut},
                   {hp2, rt::Access::InOut}},
                  detail::task_priority(node.level, false))
          ->annotate(node.level, node.m, p);
    }
    graph
        .submit(K.reducew,
                [&, ctx, i0] {
                  zhat_reduce(ctx->defl, ctx->wparts.view(), ctx->npanels, ctx->zhat.data());
                  finalize_order(*ctx, d + i0, perm.data() + i0);
                },
                {{&hblock[i], rt::Access::InOut}},
                detail::task_priority(node.level, true))
        ->annotate(node.level, node.m);
    for (index_t p = 0; p < ctx->npanels; ++p) {
      const index_t j0 = p * nb;
      const index_t j1 = std::min(j0 + nb, node.m);
      rt::Handle* hp = &hpanel[i][p];
      rt::Handle* hp2 = opt.extra_workspace ? &hpanel2[i][p] : hp;
      graph
          .submit(K.copyback,
                  [&, ctx, j0, j1] {
                    copyback_panel(ctx->defl, ctx->wdefl(ws), j0, j1, ctx->qblock(v));
                  },
                  {{&hblock[i], rt::Access::GatherV}, {hp, rt::Access::InOut}},
                  detail::task_priority(node.level, false))
          ->annotate(node.level, node.m, p);
      graph
          .submit(K.computevect,
                  [&, ctx, j0, j1] {
                    secular_vectors_panel(ctx->defl, ctx->deltam(ws), ctx->zhat.data(), j0,
                                          j1, ctx->smat(ws));
                  },
                  {{&hblock[i], rt::Access::GatherV}, {hp2, rt::Access::InOut}},
                  detail::task_priority(node.level, false))
          ->annotate(node.level, node.m, p);
      graph
          .submit(K.updatevect,
                  [&, ctx, j0, j1] {
                    update_vectors_panel(ctx->defl, ctx->w1(ws), ctx->w2(ws), ctx->smat(ws),
                                         j0, j1, ctx->qblock(v));
                  },
                  {{&hblock[i], rt::Access::GatherV},
                   {hp, rt::Access::InOut},
                   {hp2, rt::Access::InOut}},
                  detail::task_priority(node.level, false))
          ->annotate(node.level, node.m, p);
    }
  }

  // --- final sort: gather columns in ascending-eigenvalue order into the
  // workspace, then copy back (two GATHERV phases around joins). The
  // leading join closes the root merge's GATHERV group -- without it the
  // sort tasks would enter that group and overlap the last UpdateVect.
  const index_t root = plan.root;
  graph.submit(K.sort, [] {}, {{&hblock[root], rt::Access::InOut}});
  for (index_t p = 0; p < nsortpanels; ++p) {
    graph.submit(K.sort,
                 [&, p, nb, n] {
                   const index_t r1 = std::min(p * nb + nb, n);
                   for (index_t r = p * nb; r < r1; ++r) {
                     dsorted[r] = d[perm[r]];
                     blas::copy(n, v.data() + perm[r] * v.ld(),
                                ws.qwork.data() + r * ws.qwork.ld());
                   }
                 },
                 {{&hblock[root], rt::Access::GatherV}, {&hsort[p], rt::Access::InOut}});
  }
  graph.submit(K.sort, [&, n] { blas::copy(n, dsorted.data(), d); },
               {{&hblock[root], rt::Access::InOut}});
  for (index_t p = 0; p < nsortpanels; ++p) {
    graph.submit(K.sort,
                 [&, p, nb, n] {
                   const index_t j0 = p * nb;
                   const index_t w = std::min(nb, n - j0);
                   blas::lacpy(n, w, ws.qwork.data() + j0 * ws.qwork.ld(), ws.qwork.ld(),
                               v.data() + j0 * v.ld(), v.ld());
                 },
                 {{&hblock[root], rt::Access::GatherV}, {&hsort[p], rt::Access::InOut}});
  }
  graph.submit(K.scale, [&, n] { lapack::unscale_eigenvalues(n, d, orgnrm); },
               {{&hblock[root], rt::Access::InOut}, {&hT, rt::Access::InOut}});

  runtime.wait_all();

  const double seconds = sw.elapsed();
  rt::Trace trace;
  const rt::Trace* tr = nullptr;
  if (stats || obs::trace_export_requested() || obs::report_export_requested()) {
    trace = runtime.trace();
    detail::stamp_trace_meta(trace, n, opt);
    tr = &trace;
  }
  if (stats) {
    detail::fill_stats(plan, ctxs, stats);
    stats->n = n;
    stats->trace = trace;
    stats->seconds = seconds;
    for (int w : simulate_workers) stats->simulated.push_back(rt::simulate_schedule(trace, w));
    if (opt.export_dag) stats->dag_dot = rt::export_dot(graph);
  }
  detail::finish_report(scope, ctxs, n, opt.threads, seconds, tr, stats, opt.precision);
}

}  // namespace

void stedc_taskflow(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                    SolveStats* stats, const std::vector<int>& simulate_workers) {
  Options topt = opt;
  tune::apply_env_tuning(topt, n);
  detail::run_with_precision(n, d, e, v, topt, stats,
                             [&](auto* dd, auto* ee, auto& vv, SolveStats* st) {
                               stedc_taskflow_impl(n, dd, ee, vv, topt, st, simulate_workers);
                             });
}

}  // namespace dnc::dc

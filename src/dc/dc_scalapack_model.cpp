// Baseline: the ScaLAPACK pdstedc execution model.
//
// ScaLAPACK improves on LAPACK in two structural ways the paper calls out:
// independent subproblems are solved concurrently, and the merge work
// (secular equations, permutation copies, update GEMM) is distributed over
// the processes. What it cannot do is overlap merges of different tree
// levels: the data redistribution between levels acts as a barrier. This
// driver models exactly that: per-node chains with fan-out inside a merge,
// plus a barrier task between consecutive tree levels.
#include <functional>
#include <map>
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
void stedc_scalapack_model_impl(index_t n, Real* d, Real* e, MatrixT<Real>& v,
                                const Options& opt, SolveStats* stats,
                                const std::vector<int>& simulate_workers) {
  Stopwatch sw;
  obs::SolveScope scope("scalapack_model");
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
  rt::Handle hbar("level-barrier");
  std::vector<rt::Handle> hnode(plan.nodes.size());

  Real orgnrm = 0;
  rt::Runtime runtime(graph, opt.threads);

  graph.submit(K.scale, [&, n] { orgnrm = lapack::scale_problem(n, d, e); },
               {{&hbar, rt::Access::InOut}});
  graph.submit(K.partition,
               [&] {
                 detail::adjust_boundaries(plan, d, e);
                 blas::laset(n, n, Real(0), Real(0), v.data(), v.ld());
               },
               {{&hbar, rt::Access::InOut}});

  // Group nodes by level, deepest first (leaves may sit at several levels;
  // processing by level with barriers matches the ScaLAPACK schedule).
  std::map<int, std::vector<index_t>, std::greater<int>> by_level;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i)
    by_level[plan.nodes[i].level].push_back(static_cast<index_t>(i));

  for (const auto& [level, nodes] : by_level) {
    for (index_t i : nodes) {
      const TreeNode& node = plan.nodes[i];
      if (node.leaf()) {
        graph.submit(K.stedc,
                     [&, node] { detail::solve_leaf(node, d, e, v, perm.data()); },
                     {{&hbar, rt::Access::In}, {&hnode[i], rt::Access::InOut}},
                     detail::task_priority(node.level, false));
        continue;
      }
      MergeContextT<Real>* ctx = ctxs[i].get();
      const index_t i0 = node.i0;
      // Deflation is replicated on every process in pdlaed2 -- a serial
      // stretch per merge.
      graph.submit(K.deflate,
                   [&, ctx, i0] {
                     run_deflation(*ctx, ctx->qblock(v), d + i0, perm.data() + i0);
                   },
                   {{&hbar, rt::Access::In},
                    {&hnode[node.son1], rt::Access::InOut},
                    {&hnode[node.son2], rt::Access::InOut},
                    {&hnode[i], rt::Access::InOut}},
                   detail::task_priority(node.level, true));
      // pdlaed3 distributes secular equations and the permutation copies
      // over the process grid: fan out, then an allreduce-like join.
      for (index_t p = 0; p < ctx->npanels; ++p) {
        const index_t j0 = p * nb;
        const index_t j1 = std::min(j0 + nb, node.m);
        graph.submit(K.permute,
                     [&, ctx, j0, j1] {
                       permute_panel(ctx->defl, ctx->qblock(v), ctx->w1(ws), ctx->w2(ws),
                                     MatrixViewT<Real>{}, j0, j1);
                     },
                     {{&hnode[i], rt::Access::GatherV}},
                     detail::task_priority(node.level, false));
        graph.submit(K.laed4,
                     [&, ctx, i0, j0, j1] {
                       secular_solve_panel(ctx->defl, j0, j1, d + i0, ctx->deltam(ws));
                     },
                     {{&hnode[i], rt::Access::GatherV}},
                     detail::task_priority(node.level, false));
      }
      graph.submit(K.localw, [&, ctx] { zhat_local_panels(*ctx, ctx->deltam(ws), nb); },
                   {{&hnode[i], rt::Access::InOut}},
                   detail::task_priority(node.level, false));
      graph.submit(K.reducew,
                   [&, ctx, i0] {
                     zhat_reduce(ctx->defl, ctx->wparts.view(), ctx->npanels,
                                 ctx->zhat.data());
                     finalize_order(*ctx, d + i0, perm.data() + i0);
                   },
                   {{&hnode[i], rt::Access::InOut}},
                   detail::task_priority(node.level, true));
      for (index_t p = 0; p < ctx->npanels; ++p) {
        const index_t j0 = p * nb;
        const index_t j1 = std::min(j0 + nb, node.m);
        graph.submit(K.copyback,
                     [&, ctx, j0, j1] {
                       copyback_panel(ctx->defl, MatrixViewT<Real>{}, j0, j1,
                                      ctx->qblock(v));
                     },
                     {{&hnode[i], rt::Access::GatherV}},
                     detail::task_priority(node.level, false));
        graph.submit(K.computevect,
                     [&, ctx, j0, j1] {
                       secular_vectors_panel(ctx->defl, ctx->deltam(ws), ctx->zhat.data(), j0,
                                             j1, ctx->smat(ws));
                     },
                     {{&hnode[i], rt::Access::GatherV}},
                     detail::task_priority(node.level, false));
      }
      // Join before the distributed GEMM (pdgemm starts in lockstep).
      graph.submit(K.reducew, [] {}, {{&hnode[i], rt::Access::InOut}},
                   detail::task_priority(node.level, true));
      for (index_t p = 0; p < ctx->npanels; ++p) {
        const index_t j0 = p * nb;
        const index_t j1 = std::min(j0 + nb, node.m);
        graph.submit(K.updatevect,
                     [&, ctx, j0, j1] {
                       update_vectors_panel(ctx->defl, ctx->w1(ws), ctx->w2(ws),
                                            ctx->smat(ws), j0, j1, ctx->qblock(v));
                     },
                     {{&hnode[i], rt::Access::GatherV}},
                     detail::task_priority(node.level, false));
      }
    }
    // Level barrier: the data redistribution between tree levels
    // synchronises every process.
    std::vector<rt::TaskDep> deps;
    deps.push_back({&hbar, rt::Access::InOut});
    for (index_t i : nodes) deps.push_back({&hnode[i], rt::Access::InOut});
    graph.submit(K.partition, [] {}, deps);
  }

  graph.submit(K.sort,
               [&, n] {
                 detail::sort_eigenpairs(n, d, v, perm.data() + plan.nodes[plan.root].i0);
                 lapack::unscale_eigenvalues(n, d, orgnrm);
               },
               {{&hbar, rt::Access::InOut}, {&hnode[plan.root], rt::Access::InOut}});

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

void stedc_scalapack_model(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                           SolveStats* stats, const std::vector<int>& simulate_workers) {
  Options topt = opt;
  tune::apply_env_tuning(topt, n);
  detail::run_with_precision(n, d, e, v, topt, stats,
                             [&](auto* dd, auto* ee, auto& vv, SolveStats* st) {
                               stedc_scalapack_model_impl(n, dd, ee, vv, topt, st,
                                                          simulate_workers);
                             });
}

}  // namespace dnc::dc

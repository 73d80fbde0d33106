// Baseline: the MKL LAPACK dstedc execution model.
//
// Numerically identical to the task-flow solver, but the only concurrency
// is fork/join multithreaded BLAS: the whole algorithm is one sequential
// chain of tasks (a single INOUT handle), and only the UpdateVect GEMM
// fans out into column-chunk tasks that join immediately afterwards. This
// is exactly how the paper characterises the LAPACK+multithreaded-MKL
// baseline it compares against in Figure 6, and expressing it as a task
// graph lets the same DAG-replay simulator predict its 16-core makespan.
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
#include "runtime/scheduler.hpp"

namespace dnc::dc {
namespace {

template <typename Real>
void stedc_lapack_model_impl(index_t n, Real* d, Real* e, MatrixT<Real>& v,
                             const Options& opt, SolveStats* stats,
                             const std::vector<int>& simulate_workers) {
  Stopwatch sw;
  obs::SolveScope scope("lapack_model");
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
  rt::Handle hseq("sequential-flow");  // everything chains through this

  Real orgnrm = 0;
  rt::Runtime runtime(graph, opt.threads);
  const auto chain = [&](rt::KindId kind, std::function<void()> fn) {
    graph.submit(kind, std::move(fn), {{&hseq, rt::Access::InOut}});
  };

  chain(K.scale, [&, n] { orgnrm = lapack::scale_problem(n, d, e); });
  chain(K.partition, [&] { detail::adjust_boundaries(plan, d, e); });
  chain(K.laset, [&, n] { blas::laset(n, n, Real(0), Real(0), v.data(), v.ld()); });

  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const TreeNode& node = plan.nodes[i];
    if (node.leaf()) {
      // dlaed0 solves the leaves one after another; dsteqr itself is
      // level-1/2 bound and does not benefit from threaded BLAS.
      chain(K.stedc, [&, node] { detail::solve_leaf(node, d, e, v, perm.data()); });
      continue;
    }
    MergeContextT<Real>* ctx = ctxs[i].get();
    const index_t i0 = node.i0;
    chain(K.deflate, [&, ctx, i0] {
      run_deflation(*ctx, ctx->qblock(v), d + i0, perm.data() + i0);
    });
    // dlaed2's permutation copy and dlaed3's secular loop are sequential.
    chain(K.permute, [&, ctx] {
      permute_panel(ctx->defl, ctx->qblock(v), ctx->w1(ws), ctx->w2(ws), MatrixViewT<Real>{}, 0,
                    ctx->node.m);
    });
    chain(K.laed4, [&, ctx, i0] {
      secular_solve_panel(ctx->defl, 0, ctx->node.m, d + i0, ctx->deltam(ws));
    });
    chain(K.localw, [&, ctx] { zhat_local_panels(*ctx, ctx->deltam(ws), nb); });
    chain(K.reducew, [&, ctx, i0] {
      zhat_reduce(ctx->defl, ctx->wparts.view(), ctx->npanels, ctx->zhat.data());
      finalize_order(*ctx, d + i0, perm.data() + i0);
    });
    chain(K.copyback, [&, ctx] {
      copyback_panel(ctx->defl, MatrixViewT<Real>{}, 0, ctx->node.m, ctx->qblock(v));
    });
    chain(K.computevect, [&, ctx] {
      secular_vectors_panel(ctx->defl, ctx->deltam(ws), ctx->zhat.data(), 0, ctx->node.m,
                            ctx->smat(ws));
    });
    // The one parallel region: the GEMM fans out over column chunks (the
    // multithreaded-BLAS fork) and joins right after. Expressed as a
    // single chained task whose body spawns panel subtasks back into the
    // scheduler (help-first join) -- the runtime is the only thread
    // source, and the children show up in traces as "UpdateVect/panel"
    // nested under this task.
    chain(K.updatevect, [&, ctx] {
      const index_t m = ctx->node.m;
      const long npanels = static_cast<long>(ctx->npanels);
      rt::spawn_and_wait("panel", npanels, [&, ctx, m](long p) {
        const index_t j0 = static_cast<index_t>(p) * nb;
        const index_t j1 = std::min(j0 + nb, m);
        update_vectors_panel(ctx->defl, ctx->w1(ws), ctx->w2(ws), ctx->smat(ws), j0, j1,
                             ctx->qblock(v));
      });
    });
  }

  chain(K.sort, [&, n] {
    detail::sort_eigenpairs(n, d, v, perm.data() + plan.nodes[plan.root].i0);
  });
  chain(K.scale, [&, n] { lapack::unscale_eigenvalues(n, d, orgnrm); });

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

void stedc_lapack_model(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                        SolveStats* stats, const std::vector<int>& simulate_workers) {
  Options topt = opt;
  tune::apply_env_tuning(topt, n);
  detail::run_with_precision(n, d, e, v, topt, stats,
                             [&](auto* dd, auto* ee, auto& vv, SolveStats* st) {
                               stedc_lapack_model_impl(n, dd, ee, vv, topt, st,
                                                       simulate_workers);
                             });
}

}  // namespace dnc::dc

// Per-layer ledger of the traced run. Each module under src/ contributes
// metrics from three sources:
//   - calls the benchmark makes into the module's public header and times
//     itself, on inputs derived from the workload (the leaves and root
//     merge of dc::build_plan, the root merge record, the root LDL^T
//     representation, the computed eigenpairs);
//   - SolveReport counters of the traced solves;
//   - per-kind busy time and scheduler metrics of the solves' rt::Trace.
// Per-solve values are reduced to their median over the traced solves.
#include <limits>
#include <map>

#include "blas/gemm.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dc/partition.hpp"
#include "dc/secular.hpp"
#include "lapack/bisect.hpp"
#include "lapack/laed4.hpp"
#include "lapack/steqr.hpp"
#include "layers.hpp"
#include "mrrr/getvec.hpp"
#include "mrrr/ldl.hpp"
#include "obs/analysis.hpp"
#include "obs/health.hpp"
#include "runtime/engine.hpp"
#include "spans.hpp"

namespace perfbench {

using dnc::index_t;
using dnc::Matrix;

double solve(const Workload& w, const dnc::matgen::Tridiag& t, int threads, Solution& s,
             Probe* probe, long solve_id) {
  const index_t n = t.n();
  std::vector<int> sim;
  if (probe && probe->simulate) sim.push_back(4);
  if (w.driver == Driver::DC) {
    dnc::dc::Options opt;
    opt.threads = threads;
    s.lam.assign(t.d.begin(), t.d.end());
    s.e.assign(t.e.begin(), t.e.end());
    Span sp("dc", "stedc_taskflow", solve_id);
    dnc::Stopwatch sw;
    dnc::dc::stedc_taskflow(n, s.lam.data(), s.e.data(), s.v, opt, probe ? &probe->dc : nullptr,
                            sim);
    return sw.elapsed();
  }
  dnc::mrrr::Options opt;
  opt.threads = threads;
  Span sp("mrrr", "mrrr_solve", solve_id);
  dnc::Stopwatch sw;
  dnc::mrrr::mrrr_solve(n, t.d.data(), t.e.data(), s.lam, s.v, opt,
                        probe ? &probe->mr : nullptr, sim);
  return sw.elapsed();
}

namespace {

/// The 13 task kinds of dc/task_kinds.hpp (the paper's Table I split) and
/// the MRRR kinds that carry the solve.
const char* const kDcKinds[] = {
    "ScaleT",        "Partitioning", "LASET",            "STEDC",       "ComputeDeflation",
    "PermuteV",      "LAED4",        "ComputeLocalW",    "ReduceW",     "CopyBackDeflated",
    "ComputeVect",   "UpdateVect",   "SortEigenvectors"};
const char* const kMrrrKinds[] = {"Bisection", "RefineEig", "ClusterShift", "Getvec"};

/// Median wall seconds of one call of `f`: repeats until `budget` seconds
/// have passed and at least `min_reps` calls were made.
template <typename F>
double time_call(double budget, int min_reps, F&& f) {
  std::vector<double> t;
  const double end = dnc::now_seconds() + budget;
  while (static_cast<int>(t.size()) < min_reps || dnc::now_seconds() < end) {
    dnc::Stopwatch sw;
    f();
    t.push_back(sw.elapsed());
  }
  return median(t);
}

const dnc::obs::MergeRecord* root_merge(const LayerInputs& in) {
  if (in.w.driver != Driver::DC || in.traced.empty()) return nullptr;
  for (const auto& m : in.traced.front().dc.report.merges)
    if (m.level == 0) return &m;
  return nullptr;
}

/// Medians over the traced solves of the counter, trace and scheduler metrics.
void solve_metrics(const LayerInputs& in, Json& out) {
  const bool dc = in.w.driver == Driver::DC;
  const double n = static_cast<double>(in.t.n());
  static const std::map<std::string, std::string> kUnits = {
      {"blas.gemm_gflop", "GFLOP"},       {"blas.gemm_flop_per_byte", "flop/B"},
      {"lapack.laed4_iters_per_root", "count"}, {"lapack.sturm_steps", "count"},
      {"mrrr.ldl_halvings_per_eig", "count"},   {"mrrr.sturm_counts_per_eig", "count"},
      {"mrrr.clusters", "count"},         {"mrrr.depth", "count"},
      {"dc.workspace_mb", "MiB"},         {"dc.deflated_frac", "ratio"},
      {"runtime.tasks", "count"},         {"runtime.idle_s", "s"},
      {"runtime.ready_wait_us", "us"},    {"runtime.efficiency", "ratio"},
      {"runtime.busy_s", "s"},            {"runtime.critical_path_s", "s"}};
  // Every name is reported, as 0 when no traced solve passed its check.
  std::map<std::string, std::vector<double>> v;
  for (const auto& [name, unit] : kUnits) v[name];
  for (const char* k : kDcKinds) v[std::string("dc.busy.") + k];
  for (const char* k : kMrrrKinds) v[std::string("mrrr.busy.") + k];
  for (const Probe& p : in.traced) {
    const dnc::obs::SolveReport& rep = dc ? p.dc.report : p.mr.report;
    const dnc::rt::Trace& tr = dc ? p.dc.trace : p.mr.trace;
    using C = dnc::obs::Counter;
    const auto c = [&](C k) { return static_cast<double>(rep.counter(k)); };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    v["blas.gemm_gflop"].push_back(c(C::kGemmFlops) / 1e9);
    v["blas.gemm_flop_per_byte"].push_back(ratio(c(C::kGemmFlops), c(C::kGemmPackedBytes)));
    v["lapack.laed4_iters_per_root"].push_back(
        ratio(c(C::kLaed4Iterations), c(C::kLaed4Calls)));
    v["lapack.sturm_steps"].push_back(c(C::kSturmSteps));
    v["mrrr.ldl_halvings_per_eig"].push_back(c(C::kBisectLdlSteps) / n);
    v["mrrr.sturm_counts_per_eig"].push_back(c(C::kSturmCalls) / n);
    v["mrrr.clusters"].push_back(dc ? 0.0 : static_cast<double>(p.mr.clusters));
    v["mrrr.depth"].push_back(dc ? 0.0 : p.mr.depth_used);

    const std::vector<double> busy = tr.busy_by_kind();
    const double total = tr.total_busy();
    const auto share = [&](const char* kind, bool applies) {
      if (!applies || total <= 0) return 0.0;
      for (std::size_t i = 0; i < tr.kind_names.size() && i < busy.size(); ++i)
        if (tr.kind_names[i] == kind) return 100.0 * busy[i] / total;
      return 0.0;
    };
    for (const char* k : kDcKinds) v[std::string("dc.busy.") + k].push_back(share(k, dc));
    for (const char* k : kMrrrKinds) v[std::string("mrrr.busy.") + k].push_back(share(k, !dc));

    v["dc.workspace_mb"].push_back(
        dc ? static_cast<double>(rep.memory.workspace_bytes + rep.memory.context_bytes) /
                 (1024.0 * 1024.0)
           : 0.0);
    v["dc.deflated_frac"].push_back(dc ? p.dc.deflation_ratio : 0.0);

    const dnc::obs::SchedulerMetrics& sm = rep.scheduler;
    v["runtime.tasks"].push_back(static_cast<double>(sm.tasks));
    v["runtime.idle_s"].push_back(sm.total_idle);
    v["runtime.ready_wait_us"].push_back(sm.avg_ready_wait * 1e6);
    v["runtime.efficiency"].push_back(sm.efficiency);
    v["runtime.busy_s"].push_back(total);
    v["runtime.critical_path_s"].push_back(dnc::obs::critical_path(tr).length);
  }
  for (const auto& [name, vals] : v) {
    const auto u = kUnits.find(name);
    out.metric(name, median(vals), u != kUnits.end() ? u->second : "%");
  }
}

/// blas: the UpdateVect GEMM of the root merge of dc::build_plan without
/// deflation (n1 x nb panel, inner dimension n1).
double gemm_gflops(const LayerInputs& in, double budget) {
  const dnc::dc::Options opt;
  const dnc::dc::Plan plan = dnc::dc::build_plan(in.t.n(), opt.minpart);
  const index_t m = std::max<index_t>(plan.nodes[plan.root].n1, 1);
  const index_t k = m, nc = std::min<index_t>(opt.nb, in.t.n());
  dnc::Rng rng(in.seed);
  Matrix a(m, k), b(k, nc), c(m, nc);
  for (index_t i = 0; i < m * k; ++i) a.data()[i] = rng.uniform_sym();
  for (index_t i = 0; i < k * nc; ++i) b.data()[i] = rng.uniform_sym();
  Span sp("blas", "gemm");
  const double s = time_call(budget, 3, [&] {
    dnc::blas::gemm(dnc::blas::Trans::No, dnc::blas::Trans::No, m, nc, k, 1.0, a.data(),
                    a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld());
  });
  return 2.0 * m * nc * k / s / 1e9;
}

/// lapack: every root of a secular system the size of the workload's root
/// merge (k clamped to [64, 1024]; 256 without merges), evenly spaced poles.
double laed4_ns_per_root(const LayerInputs& in, double budget) {
  const dnc::obs::MergeRecord* root = root_merge(in);
  const index_t k = root ? std::clamp<index_t>(root->k, 64, 1024) : 256;
  dnc::Rng rng(in.seed);
  std::vector<double> d(k), z(k), delta(k);
  double zz = 0.0;
  for (index_t i = 0; i < k; ++i) {
    d[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(k);
    z[i] = 0.1 + rng.uniform01();
    zz += z[i] * z[i];
  }
  for (double& x : z) x /= std::sqrt(zz);
  Span sp("lapack", "laed4");
  const double s = time_call(budget, 3, [&] {
    for (index_t i = 0; i < k; ++i) dnc::lapack::laed4(k, i, d.data(), z.data(), 1.0, delta.data());
  });
  return s / static_cast<double>(k) * 1e9;
}

/// lapack: steqr over every leaf of dc::build_plan, with Cuppen's boundary
/// modification as the D&C drivers apply it.
double steqr_leaves_s(const LayerInputs& in, double budget) {
  const index_t n = in.t.n();
  const dnc::dc::Plan plan = dnc::dc::build_plan(n, dnc::dc::Options{}.minpart);
  std::vector<double> d, e;
  Matrix z;
  Span sp("lapack", "steqr");
  return time_call(budget, 3, [&] {
    for (const dnc::dc::TreeNode& node : plan.nodes) {
      if (!node.leaf()) continue;
      const index_t i0 = node.i0, m = node.m;
      d.assign(in.t.d.begin() + i0, in.t.d.begin() + i0 + m);
      e.assign(in.t.e.begin() + i0, in.t.e.begin() + i0 + std::max<index_t>(m - 1, 0));
      if (i0 > 0) d[0] -= std::fabs(in.t.e[i0 - 1]);
      if (i0 + m < n) d[m - 1] -= std::fabs(in.t.e[i0 + m - 1]);
      z.resize(m, m);
      dnc::lapack::steqr(dnc::lapack::CompZ::Identity, m, d.data(), e.data(), z.data(), z.ld());
    }
  });
}

/// Evenly spaced sample of the computed eigenvalues.
std::vector<double> sample_eigs(const LayerInputs& in, int count) {
  std::vector<double> x;
  const std::size_t n = in.sol.lam.size();
  for (int i = 0; i < count; ++i) x.push_back(in.sol.lam[(2 * i + 1) * n / (2 * count)]);
  return x;
}

/// lapack: Sturm counts of T at sampled eigenvalues.
double sturm_ns_per_step(const LayerInputs& in, double budget) {
  const index_t n = in.t.n();
  const std::vector<double> x = sample_eigs(in, 64);
  Span sp("lapack", "sturm_count");
  const double s = time_call(budget, 3, [&] {
    for (double xi : x) dnc::lapack::sturm_count(n, in.t.d.data(), in.t.e.data(), xi);
  });
  return s / (static_cast<double>(x.size()) * static_cast<double>(n)) * 1e9;
}

/// mrrr: the root representation L D L^T = T - sigma I, sigma just below
/// the Gershgorin interval as the MRRR root is chosen.
dnc::mrrr::Representation root_rep(const LayerInputs& in) {
  const index_t n = in.t.n();
  double lo = 0.0, hi = 0.0;
  dnc::lapack::gershgorin_bounds(n, in.t.d.data(), in.t.e.data(), lo, hi);
  const double sigma = lo - 1e-3 * std::max(hi - lo, 1.0);
  Span sp("mrrr", "ldl_factor");
  return dnc::mrrr::ldl_factor(n, in.t.d.data(), in.t.e.data(), sigma);
}

double ldl_sturm_ns_per_step(const LayerInputs& in, const dnc::mrrr::Representation& rep,
                             double budget) {
  const std::vector<double> x = sample_eigs(in, 64);
  Span sp("mrrr", "sturm_count_ldl");
  const double s = time_call(budget, 3, [&] {
    for (double xi : x) dnc::mrrr::sturm_count_ldl(rep, xi - rep.sigma);
  });
  return s / (static_cast<double>(x.size()) * static_cast<double>(rep.n())) * 1e9;
}

double getvec_us_per_vec(const LayerInputs& in, const dnc::mrrr::Representation& rep,
                         double budget) {
  const std::vector<double> x = sample_eigs(in, 16);
  std::vector<double> z(rep.n());
  Span sp("mrrr", "twisted_eigenvector");
  const double s = time_call(budget, 3, [&] {
    for (double xi : x) dnc::mrrr::twisted_eigenvector(rep, xi - rep.sigma, z.data());
  });
  return s / static_cast<double>(x.size()) * 1e6;
}

/// dc: PermuteV + CopyBackDeflated over a whole root merge with the column
/// types of the workload's root merge record (all deflated without one),
/// grouped columns drawn from a seeded permutation. Bytes are computed:
/// every copied element is read once and written once.
double permute_gbps(const LayerInputs& in, double budget) {
  const index_t m = in.t.n();
  const dnc::dc::Plan plan = dnc::dc::build_plan(m, dnc::dc::Options{}.minpart);
  dnc::dc::DeflationResult defl;
  defl.m = m;
  defl.n1 = plan.nodes[plan.root].n1;
  if (const dnc::obs::MergeRecord* r = root_merge(in)) {
    for (int i = 0; i < 4; ++i) defl.ctot[i] = r->ctot[i];
  } else {
    defl.ctot[3] = m;
  }
  defl.k = defl.ctot[0] + defl.ctot[1] + defl.ctot[2];
  defl.indx.resize(m);
  for (index_t i = 0; i < m; ++i) defl.indx[i] = i;
  dnc::Rng rng(in.seed);
  for (index_t i = m - 1; i > 0; --i)
    std::swap(defl.indx[i], defl.indx[rng.uniform_below(static_cast<std::uint64_t>(i) + 1)]);
  Matrix q(m, m), qwork(m, m);
  for (index_t i = 0; i < m * m; ++i) q.data()[i] = static_cast<double>(i % 97);
  const index_t n1 = defl.n1, k = defl.k;
  auto w1 = qwork.block(0, 0, n1, m);
  auto w2 = qwork.block(n1, 0, m - n1, m);
  auto wdefl = qwork.block(0, k, m, m - k);
  Span sp("dc", "permute_panel+copyback_panel");
  const double s = time_call(budget, 3, [&] {
    dnc::dc::permute_panel(defl, q.view(), w1, w2, wdefl, 0, m);
    dnc::dc::copyback_panel(defl, wdefl, 0, m, q.view());
  });
  const double rows = static_cast<double>(defl.ctot[0] * n1 + defl.ctot[1] * m +
                                          defl.ctot[2] * (m - n1) + 2 * defl.ctot[3] * m);
  return 2.0 * sizeof(double) * rows / s / 1e9;
}

/// runtime: wall time per empty task of rt::run_taskflow at 4 workers.
double task_overhead_us(double budget) {
  constexpr int kTasks = 4096;
  Span sp("runtime", "run_taskflow");
  const double s = time_call(budget, 3, [] {
    dnc::rt::TaskGraph g;
    const dnc::rt::KindId kind = g.register_kind("Empty");
    dnc::rt::run_taskflow(g, 4, [&](dnc::rt::TaskGraph& gr) {
      for (int i = 0; i < kTasks; ++i) gr.submit(kind, [] {}, {});
    });
  });
  return s / kTasks * 1e6;
}

/// obs: the sampled health probe on the workload's computed eigenpairs.
double health_probe_us(const LayerInputs& in, double budget) {
  dnc::obs::HealthProbe probe;
  probe.arm(in.t.n(), in.t.d.data(), in.t.e.data());
  const Matrix& v = in.sol.v;
  Span sp("obs", "HealthProbe::evaluate");
  return time_call(budget, 3, [&] {
           probe.evaluate(in.sol.lam.data(), v.data(), v.ld(), v.cols());
         }) * 1e6;
}

}  // namespace

void layer_metrics(const LayerInputs& in, double budget, Json& out) {
  constexpr double eps = std::numeric_limits<double>::epsilon();
  const bool dc = in.w.driver == Driver::DC;
  solve_metrics(in, out);

  const auto& simulated = dc ? in.sim.dc.simulated : in.sim.mr.simulated;
  const double sim_makespan = simulated.empty() ? 0.0 : simulated.front().makespan;
  out.metric("runtime.sim_error", in.untraced_s > 0 ? sim_makespan / in.untraced_s - 1.0 : 0.0,
             "ratio");
  out.metric("bench.trace_overhead_frac",
             in.untraced_s > 0 ? in.traced_s / in.untraced_s - 1.0 : 0.0, "ratio");
  out.metric("verify.ortho_neps", in.ortho / eps, "eps");
  out.metric("verify.residual_neps", in.resid / eps, "eps");
  out.metric("verify.eig_err_neps", in.eig_err / eps, "eps");

  const double b = budget / 9.0;
  out.metric("blas.gemm_gflops", gemm_gflops(in, b), "GF/s");
  out.metric("lapack.laed4_ns_per_root", laed4_ns_per_root(in, b), "ns");
  out.metric("lapack.steqr_s", steqr_leaves_s(in, b), "s");
  out.metric("lapack.sturm_ns_per_step", sturm_ns_per_step(in, b), "ns");
  const dnc::mrrr::Representation rep = root_rep(in);
  out.metric("mrrr.ldl_sturm_ns_per_step", ldl_sturm_ns_per_step(in, rep, b), "ns");
  out.metric("mrrr.getvec_us_per_vec", getvec_us_per_vec(in, rep, b), "us");
  out.metric("dc.permute_gbps", permute_gbps(in, b), "GB/s");
  out.metric("runtime.task_overhead_us", task_overhead_us(b), "us");
  out.metric("obs.health_probe_us", health_probe_us(in, b), "us");
}

}  // namespace perfbench

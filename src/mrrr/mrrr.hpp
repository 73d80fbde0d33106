// MRRR (Multiple Relatively Robust Representations) symmetric tridiagonal
// eigensolver, in the task-parallel style of MR3-SMP (Petschow &
// Bientinesi) -- the comparator of the paper's Figures 8-10.
//
// Pipeline: scale to unit norm -> split into unreduced blocks -> per block
// (one task each), a positive definite root LDL^T representation just below
// the spectrum and all its eigenvalues by dqds (mrrr/dqds.hpp) ->
// representation tree: singletons get a twisted-factorization eigenvector,
// clusters get a shifted child representation, their members are refined
// against it by LDL^T bisection in parallel subtasks, and they recurse.
// Independent (sub)tasks are executed by the same task runtime as the D&C
// solver, so traces and simulated parallel makespans are directly
// comparable.
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "lapack/refine.hpp"
#include "matgen/tridiag.hpp"
#include "obs/report.hpp"
#include "runtime/simulator.hpp"
#include "runtime/trace.hpp"

namespace dnc::mrrr {

struct Options {
  int threads = 4;
  /// Working precision of the solve (DNC_PREC overrides the default).
  /// F32 runs the whole representation tree in fp32; F32RefineF64 follows
  /// the fp32 solve with fp64 Rayleigh-quotient refinement of the
  /// eigenpairs (see lapack/refine.hpp).
  Precision precision = default_precision();
  /// Relative gap below which neighbouring eigenvalues form a cluster.
  double gaptol = 1.0e-3;
  /// Maximum representation-tree depth; clusters still unresolved at this
  /// depth are treated as singletons (the usual MRRR accuracy trade-off).
  int max_depth = 8;
  /// Cluster members per refinement subtask (granularity knob, MR3-SMP's
  /// task size); every singleton is its own getvec task.
  index_t grain = 32;
};

struct Stats {
  index_t n = 0;
  index_t blocks = 0;          ///< unreduced blocks
  index_t clusters = 0;        ///< cluster nodes in the representation tree
  int depth_used = 0;          ///< deepest representation level reached
  double seconds = 0.0;
  rt::Trace trace;
  std::vector<rt::SimulationResult> simulated;
  /// Observability report (no merge records -- MRRR has no merge tree, but
  /// the sturm/bisect-ldl counters and scheduler metrics apply). Exported
  /// to $DNC_REPORT / $DNC_TRACE when those are set.
  obs::SolveReport report;
  /// Mixed-precision refinement telemetry (Precision::F32RefineF64 only:
  /// checked == 0 under the pure-fp64 and pure-fp32 precisions).
  lapack::RefineReport refine;
};

/// Computes all eigenpairs of the tridiagonal (d, e): lam ascending, v
/// (n x n) the eigenvectors. Inputs are not modified.
void mrrr_solve(index_t n, const double* d, const double* e, std::vector<double>& lam,
                Matrix& v, const Options& opt = {}, Stats* stats = nullptr,
                const std::vector<int>& simulate_workers = {});

}  // namespace dnc::mrrr

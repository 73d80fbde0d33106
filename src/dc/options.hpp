// Tuning options shared by all divide & conquer drivers.
#pragma once

#include "common/matrix.hpp"
#include "common/precision.hpp"

namespace dnc::dc {

struct Options {
  /// Subproblems of at most this size are solved directly with steqr
  /// (the paper used ~300 for n=1000; 64 suits the smaller bench sizes
  /// used on this machine).
  index_t minpart = 64;

  /// Panel width: tasks of a merge operate on nb eigenvectors at a time
  /// (the paper's task-granularity knob).
  index_t nb = 128;

  /// Worker threads for the parallel drivers.
  int threads = 4;

  /// Allocate an extra panel workspace so PermuteV can overlap with LAED4
  /// and CopyBackDeflated with ComputeVect (the paper's user option for
  /// machines with many cores).
  bool extra_workspace = false;

  /// Capture the task DAG in Graphviz DOT format into SolveStats::dag_dot
  /// (runtime-backed drivers only; reproduces the paper's Figure 2).
  bool export_dag = false;

  /// Working precision of the solve (the DNC_PREC environment variable sets
  /// the default). F32 runs the whole pipeline in fp32; F32RefineF64 adds
  /// an fp64 Rayleigh-quotient refinement epilogue (lapack/refine.hpp).
  Precision precision = default_precision();
};

}  // namespace dnc::dc

// One D&C merge step: orchestration of the panel kernels plus the shared
// workspace layout. Used directly by the sequential / fork-join drivers and
// as task bodies by the task-flow driver. Templated on the working
// precision Real: an fp32 solve allocates fp32 workspaces (half the memory
// footprint and traffic of the fp64 solve).
//
// Layout of the node block after a merge (m = n1 + n2, k non-deflated):
//   columns [0, k)  the secular eigenvectors, ascending eigenvalue
//   columns [k, m)  the deflated eigenvectors: each keeps its physical
//                   column, except one that sat in [0, k), which moves once
//                   into a column >= k freed by a non-deflated column
// d follows the columns; perm lists the block's columns by ascending
// eigenvalue, so the father's sons are read through perm and only the
// root's columns are ever sorted (detail::sort_eigenpairs).
#pragma once

#include <memory>
#include <vector>

#include "dc/deflation.hpp"
#include "dc/options.hpp"
#include "dc/partition.hpp"
#include "dc/secular.hpp"

namespace dnc::dc {

/// Global workspaces sized once for the whole solve. Independent merges use
/// disjoint regions addressed by their node offset, so concurrent merges
/// never share memory (the paper's PLASMA implementation does the same with
/// its user-provided workspace).
template <typename Real>
struct WorkspaceT {
  MatrixT<Real> qwork;  ///< n x n: compressed copies of non-deflated columns (w1 / w2)
  MatrixT<Real> xwork;  ///< 2n x n: delta matrix (top) and S matrix (bottom)

  explicit WorkspaceT(index_t n) : qwork(n, n), xwork(2 * n, n) {}
};

using Workspace = WorkspaceT<double>;

/// Per-merge dynamic state. Sized for the worst case (no deflation) at
/// construction so the task DAG can be built before deflation counts are
/// known -- the paper's "matrix independent DAG" property.
template <typename Real>
struct MergeContextT {
  TreeNode node;
  /// Location of the coupling element e[i0 + n1 - 1]. Read at *execution*
  /// time, not submission time: the task-flow drivers build contexts before
  /// the ScaleT task has rescaled e.
  const Real* beta_ptr = nullptr;
  index_t npanels = 0;
  DeflationResultT<Real> defl;  ///< filled by run_deflation
  /// Trace-clock stamp (common/timer.hpp now_seconds) taken when
  /// run_deflation returned; feeds the Perfetto deflation counter track.
  double t_deflate_end = 0.0;
  std::vector<Real> z;
  std::vector<Real> zhat;
  MatrixT<Real> wparts;         ///< m x npanels partial Gu-Eisenstat products

  MergeContextT(const TreeNode& nd, const Real* e_global, index_t nb)
      : node(nd), beta_ptr(e_global + nd.i0 + nd.n1 - 1), npanels((nd.m + nb - 1) / nb),
        z(nd.m), zhat(nd.m), wparts(nd.m, npanels) {}

  // --- workspace views for this node's region ---
  MatrixViewT<Real> qblock(MatrixT<Real>& q) const {
    return q.block(node.i0, node.i0, node.m, node.m);
  }
  MatrixViewT<Real> w1(WorkspaceT<Real>& ws) const {
    return ws.qwork.block(node.i0, node.i0, node.n1, node.m);
  }
  MatrixViewT<Real> w2(WorkspaceT<Real>& ws) const {
    return ws.qwork.block(node.i0 + node.n1, node.i0, node.m - node.n1, node.m);
  }
  MatrixViewT<Real> deltam(WorkspaceT<Real>& ws) const {
    return ws.xwork.block(2 * node.i0, node.i0, node.m, node.m);
  }
  MatrixViewT<Real> smat(WorkspaceT<Real>& ws) const {
    return ws.xwork.block(2 * node.i0 + node.m, node.i0, node.m, node.m);
  }
};

using MergeContext = MergeContextT<double>;

/// Builds the scaled rank-one vector z from the sons' boundary rows and
/// runs deflation. d is the node's physical eigenvalue array (size m,
/// global offset already applied by the caller); perm holds the sons'
/// ascending orders back to back. On return d[k..m) holds the deflated
/// eigenvalues at the columns their vectors end in: each deflated value in
/// [0, k) has moved with its column (ctx.defl.moves), the rest stay put.
template <typename Real>
void run_deflation(MergeContextT<Real>& ctx, MatrixViewT<Real> qblock, Real* d,
                   const index_t* perm);

/// Finishes the eigenvalue bookkeeping once all secular roots are known:
/// merges the ascending roots d[0..k) with the deflated columns (ascending,
/// mapped through the moves) into the father's ascending perm.
template <typename Real>
void finalize_order(const MergeContextT<Real>& ctx, const Real* d, index_t* perm);

/// ComputeLocalW over every panel of width nb, into one partial-product
/// column per panel: the product grouping, and so z-hat, is the same as
/// with one task per panel.
template <typename Real>
void zhat_local_panels(MergeContextT<Real>& ctx, const MatrixViewT<Real>& deltam, index_t nb);

/// Runs a complete merge sequentially (deflation + all panels in order).
/// This is the reference implementation; parallel drivers re-order the
/// same kernel calls.
template <typename Real>
void merge_sequential(MergeContextT<Real>& ctx, MatrixT<Real>& q, WorkspaceT<Real>& ws,
                      Real* d, index_t* perm, index_t nb);

}  // namespace dnc::dc

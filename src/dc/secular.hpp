// Panel kernels of the D&C merge step. Each function is the body of one of
// the paper's Algorithm-1 tasks; every kernel operates on a contiguous
// range of eigenvector columns (a panel of width nb) so that panels of the
// same merge run concurrently under the task runtime. All kernels are
// templated on the working precision Real (double / float).
//
// Data layout for one merge of size m = n1 + n2 with k non-deflated:
//   qblock  m x m   the node's eigenvector block (input: sons, output:
//                   father: secular eigenvectors in columns [0, k),
//                   deflated ones in [k, m), see merge.hpp)
//   w1      n1 x k12   top parts of type-1/2 columns (compressed copy)
//   w2      n2 x k23   bottom parts of type-2/3 columns
//   deltam  k x k      column j = delta vector of secular root j
//   smat    k x k      eigenvectors of the rank-one system, rows in grouped
//                      order (ready for the compressed GEMMs)
// Deflated columns are never copied out: they stay in qblock, and only the
// ones in [0, k) move, once, inside it (DeflationResultT::moves).
#pragma once

#include "dc/deflation.hpp"

namespace dnc::dc {

/// PermuteV: copies the non-deflated grouped columns among [g0, g1) of
/// qblock into the compressed workspaces (paper kernel "PermuteV"; memory
/// bound). Deflated columns are not copied; wdefl is unused and may be
/// empty.
template <typename Real>
void permute_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& qblock,
                   MatrixViewT<Real> w1, MatrixViewT<Real> w2, MatrixViewT<Real> wdefl,
                   index_t g0, index_t g1);

/// LAED4: solves secular roots [j0, j1) (clamped to k); writes lambda[j]
/// and column j of deltam.
template <typename Real>
void secular_solve_panel(const DeflationResultT<Real>& defl, index_t j0, index_t j1,
                         Real* lambda, MatrixViewT<Real> deltam);

/// ComputeLocalW: multiplies into wpart[i] (i in [0, k)) the Gu-Eisenstat
/// partial products contributed by roots [j0, j1). wpart must be
/// initialised to 1 before the first panel.
template <typename Real>
void zhat_local_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& deltam,
                      index_t j0, index_t j1, Real* wpart);

/// ReduceW: combines the per-panel partial products (columns of wparts)
/// into the stabilised z-hat (Gu-Eisenstat): zhat[i] =
/// sign(w_i) sqrt(prod). Also the merge's natural place to finalise the
/// father's eigenvalue ordering.
template <typename Real>
void zhat_reduce(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& wparts,
                 index_t nparts, Real* zhat);

/// ComputeVect: assembles and normalises secular eigenvectors [j0, j1) into
/// smat, rows permuted to the grouped order expected by the GEMMs.
template <typename Real>
void secular_vectors_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& deltam,
                           const Real* zhat, index_t j0, index_t j1, MatrixViewT<Real> smat);

/// UpdateVect: the compressed GEMMs forming father eigenvector columns
/// [j0, j1): top rows from w1 x smat(0:k12, :), bottom rows from
/// w2 x smat(ctot1:ctot1+k23, :).
template <typename Real>
void update_vectors_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& w1,
                          const MatrixViewT<Real>& w2, const MatrixViewT<Real>& smat,
                          index_t j0, index_t j1, MatrixViewT<Real> qblock);

/// CopyBackDeflated: performs the moves of deflated columns whose source
/// column lies in [g0, g1), copying each within qblock to its destination
/// column >= k (memory bound). It must run after every PermuteV panel of
/// the merge (a destination's old column is compressed by then) and before
/// the UpdateVect panel that overwrites the source. wdefl is unused and may
/// be empty.
template <typename Real>
void copyback_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& wdefl,
                    index_t g0, index_t g1, MatrixViewT<Real> qblock);

}  // namespace dnc::dc

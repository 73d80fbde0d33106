#include "dc/merge.hpp"

#include <algorithm>
#include <cmath>

#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"

namespace dnc::dc {

template <typename Real>
void run_deflation(MergeContextT<Real>& ctx, MatrixViewT<Real> qblock, Real* d,
                   const index_t* perm) {
  const index_t n1 = ctx.node.n1;
  const index_t m = ctx.node.m;
  const index_t n2 = m - n1;
  // z = (last row of V1, first row of V2) / sqrt(2); the second part's sign
  // flips when the coupling is negative so that the rank-one weight can be
  // taken positive (see dlaed2 and DESIGN.md).
  const Real beta = *ctx.beta_ptr;
  const Real scale = std::sqrt(Real(0.5));
  for (index_t j = 0; j < n1; ++j) ctx.z[j] = scale * qblock(n1 - 1, j);
  const Real sgn = beta < Real(0) ? -scale : scale;
  for (index_t j = n1; j < m; ++j) ctx.z[j] = sgn * qblock(n1, j);
  const Real rho = std::fabs(Real(2) * beta);

  ctx.defl = deflate(n1, n2, d, ctx.z.data(), rho, qblock, perm, perm + n1);

  // Deflated values in [0, k) move with their columns now, before the
  // LAED4 panels write the secular roots into d[0..k); the moved-over
  // values were already copied into dlamda.
  for (const ColumnMove& mv : ctx.defl.moves) d[mv.dst] = d[mv.src];

  // Partial-product workspace: panels multiply into their own column.
  ctx.wparts.fill(Real(1));

  ctx.t_deflate_end = now_seconds();
}

template <typename Real>
void finalize_order(const MergeContextT<Real>& ctx, const Real* d, index_t* perm) {
  // Roots d[0..k) are ascending (they interlace the poles) and so are the
  // deflated columns in grouped order: one merge pass, taking the root on
  // ties (dlamrg's rule).
  const DeflationResultT<Real>& defl = ctx.defl;
  const index_t k = defl.k;
  const index_t m = ctx.node.m;
  index_t r = 0, g = k, t = 0;
  while (r < k && g < m) {
    const index_t c = defl.final_column(defl.indx[g]);
    if (d[r] <= d[c]) {
      perm[t++] = r++;
    } else {
      perm[t++] = c;
      ++g;
    }
  }
  while (r < k) perm[t++] = r++;
  while (g < m) perm[t++] = defl.final_column(defl.indx[g++]);
}

template <typename Real>
void zhat_local_panels(MergeContextT<Real>& ctx, const MatrixViewT<Real>& deltam, index_t nb) {
  for (index_t p = 0; p < ctx.npanels; ++p) {
    const index_t j0 = p * nb;
    zhat_local_panel(ctx.defl, deltam, j0, std::min(j0 + nb, ctx.node.m),
                     ctx.wparts.data() + p * ctx.wparts.ld());
  }
}

template <typename Real>
void merge_sequential(MergeContextT<Real>& ctx, MatrixT<Real>& q, WorkspaceT<Real>& ws,
                      Real* d, index_t* perm, index_t nb) {
  MatrixViewT<Real> qb = ctx.qblock(q);
  run_deflation(ctx, qb, d, perm);
  const index_t m = ctx.node.m;
  MatrixViewT<Real> w1 = ctx.w1(ws);
  MatrixViewT<Real> w2 = ctx.w2(ws);
  MatrixViewT<Real> dm = ctx.deltam(ws);
  MatrixViewT<Real> sm = ctx.smat(ws);
  for (index_t p = 0; p < ctx.npanels; ++p) {
    const index_t j0 = p * nb;
    const index_t j1 = std::min(j0 + nb, m);
    permute_panel(ctx.defl, qb, w1, w2, MatrixViewT<Real>{}, j0, j1);
    secular_solve_panel(ctx.defl, j0, j1, d, dm);
  }
  zhat_local_panels(ctx, dm, nb);
  zhat_reduce(ctx.defl, ctx.wparts.view(), ctx.npanels, ctx.zhat.data());
  for (index_t p = 0; p < ctx.npanels; ++p) {
    const index_t j0 = p * nb;
    const index_t j1 = std::min(j0 + nb, m);
    copyback_panel(ctx.defl, MatrixViewT<Real>{}, j0, j1, qb);
    secular_vectors_panel(ctx.defl, dm, ctx.zhat.data(), j0, j1, sm);
    update_vectors_panel(ctx.defl, w1, w2, sm, j0, j1, qb);
  }
  finalize_order(ctx, d, perm);
}

#define DNC_INSTANTIATE_MERGE(Real)                                                       \
  template void run_deflation<Real>(MergeContextT<Real>&, MatrixViewT<Real>, Real*,       \
                                    const index_t*);                                      \
  template void finalize_order<Real>(const MergeContextT<Real>&, const Real*, index_t*);  \
  template void zhat_local_panels<Real>(MergeContextT<Real>&, const MatrixViewT<Real>&,   \
                                        index_t);                                         \
  template void merge_sequential<Real>(MergeContextT<Real>&, MatrixT<Real>&,              \
                                       WorkspaceT<Real>&, Real*, index_t*, index_t)

DNC_INSTANTIATE_MERGE(double);
DNC_INSTANTIATE_MERGE(float);

#undef DNC_INSTANTIATE_MERGE

}  // namespace dnc::dc

// Deflation step of one D&C merge (dlaed2 equivalent): given the two sons'
// spectral decompositions, detect eigenpairs of the merged system that are
// already converged (negligible z component, or numerically equal poles
// combined by a Givens rotation), and organise the remaining rank-one
// secular system.
//
// This is the paper's "Compute deflation" join kernel: it is sequential
// within a merge but runs concurrently across independent merges.
// Templated on the working precision Real (double / float); the deflation
// tolerance scales with the precision's epsilon, so fp32 solves deflate
// more aggressively on the same matrix.
#pragma once

#include <algorithm>
#include <vector>

#include "common/matrix.hpp"

namespace dnc::dc {

/// A deflated column that sits in [0, k) of the node block, where the
/// secular eigenvectors go: it moves once, inside the block, to column dst
/// >= k, a slot whose non-deflated column was already compressed into
/// w1 / w2.
struct ColumnMove {
  index_t src = 0;
  index_t dst = 0;
};

/// Column types, exactly LAPACK dlaed2's classification:
///   1: non-deflated, support only in the first son (top n1 rows)
///   2: non-deflated, support in both sons (created by cross-son rotations)
///   3: non-deflated, support only in the second son (bottom n2 rows)
///   4: deflated
template <typename Real>
struct DeflationResultT {
  index_t m = 0;    ///< merged size (n1 + n2)
  index_t n1 = 0;   ///< first son size
  index_t k = 0;    ///< number of non-deflated eigenvalues
  Real rho = 0;     ///< scaled rank-one weight (= |2 beta| after z scaling)

  std::vector<Real> dlamda;  ///< k poles of the secular system, ascending
  std::vector<Real> w;       ///< z components for the poles (dlamda order)

  /// Grouped order: positions 0..k-1 hold non-deflated columns grouped by
  /// type (all 1s, then 2s, then 3s), positions k..m-1 the deflated
  /// columns in ascending eigenvalue order (ties in the order they
  /// deflated). indx[g] is the *physical* column (0-based within the
  /// node's block) at grouped position g, before any move.
  std::vector<index_t> indx;

  /// For grouped positions g in [0, k): the rank of that column's pole in
  /// dlamda (row index into the secular eigenvector matrix).
  std::vector<index_t> rank_of;

  /// Deflated columns in [0, k) and their destinations, ascending by src;
  /// at most min(k, m - k) entries. Every other deflated column stays in
  /// its physical column. Empty means no column moves.
  std::vector<ColumnMove> moves;

  /// Counts of types 1..4 (ctot[t-1]).
  index_t ctot[4] = {0, 0, 0, 0};

  index_t k12() const { return ctot[0] + ctot[1]; }  ///< columns with top support
  index_t k23() const { return ctot[1] + ctot[2]; }  ///< columns with bottom support

  /// Physical column of deflated column j after the merge: its move's
  /// destination when j < k, j itself otherwise.
  index_t final_column(index_t j) const {
    if (j >= k) return j;
    const auto it = std::lower_bound(moves.begin(), moves.end(), j,
                                     [](const ColumnMove& mv, index_t c) { return mv.src < c; });
    DNC_ASSERT(it != moves.end() && it->src == j);
    return it->dst;
  }
};

using DeflationResult = DeflationResultT<double>;

/// Runs deflation for a merge of sizes n1 + n2 = m.
///
/// d (size m): sons' eigenvalues in physical column order; entries of
///   rotated pairs are updated in place.
/// z (size m): the scaled rank-one vector (already 1/sqrt(2)-scaled and
///   sign-adjusted); zeroed entries mark rotated-away columns.
/// q (m x m view): sons' eigenvector block; Givens rotations are applied to
///   its columns in place.
/// perm1/perm2: ascending orders of the sons' eigenvalues (physical
///   indices, perm2 relative to the second son).
template <typename Real>
DeflationResultT<Real> deflate(index_t n1, index_t n2, Real* d, Real* z, Real rho_in,
                               MatrixViewT<Real> q, const index_t* perm1,
                               const index_t* perm2);

}  // namespace dnc::dc

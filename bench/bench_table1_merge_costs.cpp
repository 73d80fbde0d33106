// Table I reproduction: cost of the merge-phase operations. The paper
// tabulates the asymptotic complexity of each step; we measure the actual
// per-kernel time split of the task-flow solver and check the scaling
// against the predicted orders (last-merge dominance, Theta(n k^2) GEMM).
#include "bench_support.hpp"

int main() {
  using namespace dnc;
  using namespace dnc::bench;
  const index_t n = nmax_from_env(1200);

  header("Table I: cost of the merge operations",
         "measured per-kernel time share for three deflation regimes, n=" + std::to_string(n));
  std::printf("paper's asymptotic costs per merge (n = merge size, k = non-deflated):\n"
              "  Compute deflation   Theta(n)\n"
              "  PermuteV            Theta(n^2)        [memory bound]\n"
              "  LAED4               Theta(k^2)\n"
              "  ComputeLocalW/Red.  Theta(k^2)\n"
              "  CopyBackDeflated    Theta(n(n-k))     [memory bound]\n"
              "  ComputeVect         Theta(k^2)\n"
              "  UpdateVect (GEMM)   Theta(n k^2)      [dominant]\n"
              "here deflated columns stay in place: PermuteV copies Theta(n k) and\n"
              "CopyBackDeflated Theta(n min(k, n-k)), the final sort Theta(n^2) once.\n\n");

  for (int type : {2, 3, 4}) {
    auto t = matgen::table3_matrix(type, n);
    auto st = run_taskflow(t, {}, scaled_options(n));
    std::printf("type %d (deflation %.0f%%, root k=%ld of %ld):\n%s\n", type,
                100.0 * st.deflation_ratio, (long)st.root_k, (long)n,
                st.trace.kernel_summary().c_str());
  }
  std::printf("expected shape: UpdateVect dominates (~90%% per the paper's Section IV) when\n"
              "deflation is low (type 4); in the paper Permute/CopyBack take over as\n"
              "deflation rises (type 2), turning the merge memory bound; here they shrink\n"
              "with k and the leaf STEDC solves take over instead.\n");

  // Last-merge dominance: complexity analysis says the final merge is ~n^3
  // of the total 4n^3/3 (75 %). Check by timing two runs whose trees differ
  // only in the final merge.
  auto t4 = matgen::table3_matrix(4, n);
  auto whole = run_taskflow(t4, {}, scaled_options(n));
  double total = whole.trace.total_busy();
  // Solve the two halves independently (no final merge).
  auto left = matgen::table3_matrix(4, n / 2, 42);
  auto right = matgen::table3_matrix(4, n - n / 2, 43);
  const double halves = run_taskflow(left, {}, scaled_options(n / 2)).trace.total_busy() +
                        run_taskflow(right, {}, scaled_options(n - n / 2)).trace.total_busy();
  std::printf("\nlast-merge share of total work (paper predicts ~3/4 for no deflation):\n"
              "  total %.4fs, without final merge ~%.4fs -> share %.0f%%\n",
              total, halves, 100.0 * (total - halves) / total);
  return 0;
}

// Figure 4 reproduction: execution trace on a type-5-like matrix with
// almost 100 % deflation (the paper uses its type 5; with the paper's
// legend conventions the ~100 %-deflation sweep matrices are types 1/2 --
// we show type 2). In the paper the merge work collapses to permutation
// copies and the run becomes memory bound; here deflated columns are not
// copied, so the merges nearly vanish. Simulated 16-worker schedule of the
// measured DAG.
#include "bench_support.hpp"

int main() {
  using namespace dnc;
  using namespace dnc::bench;
  const index_t n = nmax_from_env(1200);
  auto t = matgen::table3_matrix(2, n);

  const auto st = run_taskflow(t, {16}, scaled_options(n));
  header("Figure 4: trace with ~100% deflation (memory-bound merges)",
         "n=" + std::to_string(n) + ", deflation " +
             std::to_string(100.0 * st.deflation_ratio) + "%");
  std::printf("per-kernel split (measured):\n%s\n", st.trace.kernel_summary().c_str());
  std::printf("simulated 16-worker schedule, makespan %.4fs (speedup %.2fx):\n%s\n",
              st.simulated[0].makespan,
              st.simulated[0].total_work / st.simulated[0].makespan,
              st.simulated[0].schedule.ascii_gantt(100).c_str());
  std::printf("expected shape (paper): UpdateVect disappears, Permute/CopyBack dominate;\n"
              "speedup is bandwidth-limited (well below the type-4 case) but idle time\n"
              "stays small. Here deflated eigenvectors stay in place, so Permute/CopyBack\n"
              "and the final sort copy (almost) nothing and the leaf STEDC solves dominate.\n");
  return 0;
}

// SolveReport: the per-solve observability artifact every driver fills.
//
// Three ingredient groups, mirroring the ISSUE's tentpole:
//   1. algorithmic counters  -- thread-local deltas over the solve
//      (laed4 iteration histogram, Sturm/bisection steps, GEMM flops and
//      packed bytes), captured by SolveScope;
//   2. per-merge deflation records -- the four dlaed2 column types for
//      every merge of the D&C tree (the paper's Figure 4 discussion);
//   3. scheduler metrics -- ready->start waits, queue depth, worker idle,
//      derived from the runtime Trace.
//
// Export is env-gated: DNC_TRACE=<path> writes the Perfetto trace,
// DNC_REPORT=<path> the JSON report plus <path>.txt one-page summary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/hwc.hpp"

namespace dnc::rt {
struct Trace;
}

namespace dnc::obs {

/// Deflation outcome of one merge, split by dlaed2 column type:
/// ctot[0..2] are the non-deflated types 1/2/3 (top-only / both /
/// bottom-only support), ctot[3] the deflated columns. Sum == m.
struct MergeRecord {
  int level = 0;  ///< merge-tree depth (root = 0)
  long m = 0;     ///< merged size (n1 + n2)
  long n1 = 0;    ///< first son size
  long k = 0;     ///< non-deflated count (secular system size)
  long ctot[4] = {0, 0, 0, 0};
  double t_end = 0.0;  ///< trace-clock time the deflation kernel finished (0: unknown)
};

struct SchedulerMetrics {
  int workers = 0;
  long tasks = 0;  ///< executed tasks
  double makespan = 0.0;
  double total_busy = 0.0;
  double efficiency = 0.0;
  double avg_ready_wait = 0.0;  ///< mean ready->start latency (s)
  double max_ready_wait = 0.0;
  double total_idle = 0.0;  ///< summed per-worker idle (s)
  int max_queue_depth = 0;
  // --- scheduling-policy observability (PR 4) ---
  std::string policy;       ///< "steal" ("central" in old traces; "" = unknown)
  long steals = 0;          ///< successful steals, summed over workers
  long steal_attempts = 0;  ///< victim probes, summed over workers
  long failed_steals = 0;   ///< empty full scans, summed over workers
  long local_pops = 0;      ///< own-deque pops, summed over workers
  long placed_max = 0;      ///< most submitter placements on one worker
  long placed_min = 0;      ///< fewest submitter placements on one worker
  // --- steal locality under the topology-aware victim order (PR 9) ---
  long steals_same_l3 = 0;      ///< victim shared the thief's L3 domain
  long steals_same_socket = 0;  ///< same socket, different L3
  long steals_cross_socket = 0; ///< crossed the socket interconnect
  // --- nested subtasks (spawn_and_wait) ---
  long child_tasks = 0;  ///< child subtasks spawned from inside tasks
};

/// Cheap per-solve numerical-health estimate: s sampled eigenpairs checked
/// for residual and orthogonality in O(n*s), not the O(n^2*s) full check
/// (that is tests/support territory). Feeds the metrics histograms and the
/// flight-recorder anomaly triggers.
struct HealthMetrics {
  int sampled_columns = 0;        ///< s (0 = probe never ran)
  double max_rel_residual = 0.0;  ///< max_i ||T v_i - lam_i v_i||_inf / ||T||_1
  double max_ortho_error = 0.0;   ///< max over samples of |v_i.v_j| (j a
                                  ///< neighbour) and |1 - ||v_i||^2|
};

struct SolveReport {
  std::string driver;  ///< "sequential", "taskflow", "lapack_model", ...
  long n = 0;
  int threads = 0;
  double seconds = 0.0;
  std::string simd_isa;    ///< dispatched kernel table ("scalar"/"sse2"/"avx2")
  std::string precision = "f64";  ///< working precision ("f64"/"f32"/"f32refine")
  std::string git_commit;  ///< configure-time revision (version::kGitCommit)
  std::string build_type;  ///< CMAKE_BUILD_TYPE the binary was built with
  std::string hostname;    ///< machine that ran the solve
  std::string timestamp;   ///< ISO-8601 UTC wall-clock time of solve end

  /// Bit width of the kernels' working precision (32 for both fp32 modes:
  /// the f32refine epilogue is fp64 but every GEMM ran in fp32).
  int precision_bits() const { return precision == "f64" || precision.empty() ? 64 : 32; }

  CounterArray counters{};  ///< deltas over the solve, indexed by obs::Counter
  std::vector<MergeRecord> merges;

  bool has_scheduler = false;
  SchedulerMetrics scheduler;

  /// Tuning-table consultation (DNC_TUNE_TABLE): when the solve applied a
  /// table entry to fill Options defaults, the entry is stamped here so
  /// reports show which cell drove the run.
  bool tuned = false;
  std::string tune_source;  ///< path of the consulted table
  std::string tune_entry;   ///< compact entry id, e.g. "n=1000 nb=96 sched=steal"

  bool has_health = false;
  HealthMetrics health;

  // --- hardware-counter attribution (DNC_HWC; empty backend = off) ---
  std::string hwc_backend;                  ///< "perf" / "rusage" / ""
  std::vector<std::string> hwc_slot_names;  ///< slot meanings, in order
  std::vector<KindHwcTotals> kind_hwc;      ///< per-task-kind counter sums

  /// Workspace memory telemetry: what the solve allocated (driver scratch,
  /// per-merge contexts, the eigenvector output) plus the process peak-RSS
  /// high-water mark and its growth over the solve. Byte totals are exact
  /// sums of the driver's allocation sizes; the RSS figures come from the
  /// kernel (VmHWM) and are 0 when unavailable.
  struct MemoryMetrics {
    std::uint64_t workspace_bytes = 0;      ///< driver scratch (qwork/xwork, ...)
    std::uint64_t context_bytes = 0;        ///< per-merge contexts (z, zhat, wparts)
    std::uint64_t output_bytes = 0;         ///< eigenvector matrix
    std::uint64_t rss_hwm_bytes = 0;        ///< process peak RSS at solve end
    std::uint64_t rss_hwm_delta_bytes = 0;  ///< HWM growth over the solve
  } memory;

  std::uint64_t counter(Counter c) const { return counters[c]; }
  /// Sum of the laed4 iteration-histogram buckets (== laed4 calls).
  std::uint64_t laed4_hist_total() const;
  long merged_columns_total() const;  ///< sum of m over merges
  long deflated_total() const;        ///< sum of m - k over merges
  long nondeflated_total() const;     ///< sum of k over merges

  std::string to_json() const;
  std::string summary_text() const;
};

/// Scheduler metrics derived from a measured Trace.
SchedulerMetrics scheduler_metrics(const rt::Trace& trace);

/// Captures the counter baseline at solve start; finish() turns the deltas
/// plus the optional trace into a report.
class SolveScope {
 public:
  explicit SolveScope(const char* driver);
  void finish(SolveReport& out, long n, int threads, double seconds,
              const rt::Trace* trace) const;

 private:
  const char* driver_;
  CounterArray begin_;
  std::uint64_t rss_hwm_begin_ = 0;  ///< peak RSS when the solve started
};

/// True when the respective env var requests an export. Read per call so
/// tests can setenv() mid-process; two getenv calls per solve are noise.
bool trace_export_requested() noexcept;
bool report_export_requested() noexcept;

/// Writes $DNC_TRACE (Perfetto trace JSON, needs `trace`) and $DNC_REPORT
/// (report JSON) + $DNC_REPORT.txt (text summary). No-op when unset.
///
/// A process that solves several times (every bench does) must not clobber
/// the artifact of an earlier solve: the first export of the process uses
/// the configured path verbatim, every later one gets a sequence suffix
/// before the extension -- "trace.json", then "trace.2.json",
/// "trace.3.json", ... The counter is shared by DNC_TRACE and DNC_REPORT so
/// the trace and report of one solve always carry the same suffix.
void export_solve_artifacts(const SolveReport& report, const rt::Trace* trace);

/// Path the `seq`-th export (0-based) writes for the configured `base`:
/// seq 0 -> base, seq k -> base with ".k+1" inserted before the extension
/// ("report.json" -> "report.2.json"; extensionless paths get a plain
/// suffix appended). Exposed for tests.
std::string sequenced_export_path(const std::string& base, unsigned seq);

/// Resets the process-wide export sequence so the next export uses the
/// plain path again. Tests that re-point DNC_TRACE/DNC_REPORT per case and
/// expect the unsuffixed file must call this in their setup.
void reset_export_sequence() noexcept;

/// Expands %p -> pid and %s -> `seq` in an export path. Paths carrying a
/// placeholder opt out of the automatic ".N" sequence suffix: with %s each
/// export names its own file; with only %p concurrent *processes* are
/// disambiguated while repeats within the process still get the suffix.
std::string expand_path_placeholders(const std::string& path, unsigned long seq);

/// This machine's hostname ("unknown" when gethostname fails). Cached.
std::string current_hostname();

/// Current wall-clock time as ISO-8601 UTC ("2026-08-08T12:34:56Z").
std::string iso8601_timestamp_utc();

}  // namespace dnc::obs

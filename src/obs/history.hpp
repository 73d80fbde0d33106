// Solve-history archive: an append-only JSONL log of solve headlines.
//
// The flight recorder answers "what happened in THIS process"; the history
// archive answers "how has this solve behaved across commits and days".
// Every telemetry-observed solve appends one compact JSON line -- keyed by
// (git commit, timestamp, driver, n, family, precision, workers) and
// carrying the headline numbers a trend view needs (wall seconds, makespan,
// idle, deflated fraction, GEMM GF/s, residual) -- to the file named by
// DNC_HISTORY. The file survives processes and machines (one ::write per
// line keeps concurrent appenders line-atomic), so `dnc_diff --history`
// can plot a cell across a whole bench campaign or bisect a regression to
// the commit that introduced it.
//
// Knobs (read lazily; refresh_from_env() for tests):
//   DNC_HISTORY            path of the archive; unset/"" = off
//   DNC_HISTORY_MAX_BYTES  rotation cap (default 16 MiB): when the file is
//                          at/over the cap before an append, it is renamed
//                          to <path>.1 (replacing any previous .1) and a
//                          fresh file is started -- bounded disk, and the
//                          previous generation stays inspectable.
#pragma once

#include <string>
#include <vector>

#include "obs/report.hpp"

namespace dnc::obs::history {

/// One archived solve: the identity key plus headline numbers. This is the
/// whole line -- history is a trend substrate, not a report store; the full
/// SolveReport lives in DNC_REPORT artifacts / bench report side-writes.
struct Record {
  // --- identity key ---
  std::string git_commit;
  std::string timestamp;  ///< ISO-8601 UTC
  std::string hostname;
  std::string driver;
  std::string family;  ///< matrix family / generator hint ("" = unknown)
  std::string precision;
  long n = 0;
  int workers = 0;
  // --- headline numbers ---
  double seconds = 0.0;     ///< wall-clock solve time
  double makespan = 0.0;    ///< scheduler makespan (0 = no scheduler data)
  double total_idle = 0.0;  ///< summed worker idle (s)
  double deflated_fraction = 0.0;  ///< 0 when the solve carried no merges
  double gemm_gflops = 0.0;        ///< 0 = unknown
  double max_rel_residual = 0.0;   ///< 0 = health probe off
  std::string sched_policy;
  bool tuned = false;
  std::string tune_entry;

  std::string to_json_line() const;  ///< one compact dnc-history-v1 line
};

/// One relaxed load + branch once initialised (metrics::enabled() idiom).
bool enabled() noexcept;
void refresh_from_env() noexcept;

/// The archive path ("" when off) and rotation cap currently in effect.
std::string archive_path();
long max_bytes() noexcept;

/// Matrix-family hint for the next record_from_report() on this thread.
/// Solve epilogues know nothing about how the matrix was generated; the
/// harness that does (bench_solver's family loop, dnc_trace's --type) sets
/// the hint around the solve. Pass nullptr/"" to clear.
void set_family_hint(const char* family);
std::string family_hint();

/// Distils a SolveReport into a Record (family from the thread-local hint).
Record record_from_report(const SolveReport& report);

/// Appends one record to the archive file, rotating first when the file is
/// at/over max_bytes(). Thread-safe; concurrent processes interleave whole
/// lines (single O_APPEND write). Returns false when the archive is off or
/// the write failed.
bool append(const Record& rec);

/// The telemetry entry point: distils the report and appends it to the
/// archive file when enabled(); a no-op otherwise.
void note(const SolveReport& report);

/// Wildcarded record filter: empty strings / zero numbers match anything.
/// `family` and `n` are what bench cells key on; commit narrows to one
/// build, workers to one machine shape.
struct Key {
  std::string driver, family, precision, commit;
  long n = 0;
  int workers = 0;

  bool matches(const Record& r) const;
};

/// Parses "n=1000,family=4,driver=taskflow,prec=f64,workers=8,commit=abc"
/// (any subset, any order; unknown fields are an error). Returns false and
/// sets `err` on malformed input.
bool parse_key(const std::string& spec, Key& out, std::string* err = nullptr);

/// Reads an archive file (JSONL; unparseable lines are skipped and counted
/// in `skipped` when given). A missing file yields an empty vector and
/// false.
bool load_file(const std::string& path, std::vector<Record>& out,
               std::string* err = nullptr, long* skipped = nullptr);

/// All records matching `key`, in file (= chronological append) order.
std::vector<Record> series(const std::vector<Record>& records, const Key& key);

/// The newest record per git commit among those matching `key`, in first-
/// seen commit order -- the across-commits trend view.
std::vector<Record> latest_per_commit(const std::vector<Record>& records,
                                      const Key& key);

/// Table + ascii bars + min/median/max summary of a series (seconds
/// column). `title` heads the block.
std::string render_series(const std::vector<Record>& series,
                          const std::string& title);

}  // namespace dnc::obs::history

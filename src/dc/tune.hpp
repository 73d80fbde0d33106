// Autotuning table: persisted results of a `dnc_tune` sweep, consulted by
// the drivers at solve time.
//
// The closing piece of the PR 9 loop: `dnc_tune` measures which panel
// width (nb) wins for a given (n, family, precision, workers) cell and
// writes a versioned JSON table; a solve run with DNC_TUNE_TABLE=<path>
// looks up the nearest-n entry matching its precision and worker count and
// fills in nb if the caller left it at its default. An explicit
// Options::nb always wins (the table only replaces built-in defaults).
//
// Table format (version 1):
//   { "version": 1,
//     "entries": [ { "n": 600, "family": "type4", "precision": "f64",
//                    "workers": 4, "nb": 96,
//                    "makespan": 0.0123, "how": "solve-sweep" }, ... ] }
// "family" is provenance (which Table III generator produced the tuning
// matrix) -- a solve cannot know its matrix family, so lookups ignore it.
// Tables written when the runtime had two scheduler policies also carry a
// "sched" member; like every unknown member it is ignored.
#pragma once

#include <string>
#include <vector>

#include "common/matrix.hpp"

namespace dnc::obs {
struct SolveReport;
}

namespace dnc::dc {
struct Options;

namespace tune {

struct Entry {
  long n = 0;             ///< problem size the cell was tuned at
  std::string family;     ///< provenance label (e.g. "type4"); not matched
  std::string precision;  ///< "f64"/"f32"/"f32refine"; "" matches any
  int workers = 0;        ///< tuned worker count; 0 matches any
  index_t nb = 0;         ///< winning panel width; 0 = no recommendation
  double makespan = 0.0;  ///< measured seconds of the winning config
  std::string how;        ///< "solve-sweep" / "trace-sweep"
};

struct Table {
  int version = 1;
  std::vector<Entry> entries;
  std::string source;  ///< path the table was loaded from ("" = in-memory)
};

/// Parses a version-1 table. Unknown versions and malformed JSON fail with
/// a message in *err; unknown per-entry keys are ignored (forward compat).
bool load_table(const std::string& path, Table& out, std::string* err);
bool parse_table(const std::string& json_text, Table& out, std::string* err);

/// Serialises the table (stable key order, one entry per line).
std::string table_to_json(const Table& t);

/// Best entry for a solve of size n at the given precision/worker count:
/// candidates must match precision and workers (entry "" / 0 are
/// wildcards), then nearest n wins, ties to the smaller n. Null when no
/// candidate matches.
const Entry* lookup(const Table& t, long n, const std::string& precision, int workers);

/// One-line rendering of an entry ("n=600 family=type4 nb=96"),
/// used for the SolveReport stamp.
std::string entry_label(const Entry& e);

/// Solve-time hook, called by every driver entry point: when DNC_TUNE_TABLE
/// names a readable table, looks up (n, opt.precision, opt.threads) and
/// overrides opt.nb IF the caller left it at its built-in default (128).
/// Returns true when the entry matched, whether or not nb changed (so the
/// report records the consultation either way); records a
/// pending stamp that the next finish_report() picks up. The table is
/// cached per path and reloaded when the file's mtime/size changes.
bool apply_env_tuning(Options& opt, index_t n);

/// Transfers the pending consultation (if any) of this thread's last
/// apply_env_tuning() onto the report: sets tuned/tune_source/tune_entry.
void stamp_report(obs::SolveReport& rep);

}  // namespace tune
}  // namespace dnc::dc

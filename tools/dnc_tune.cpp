// dnc_tune: autotuning-table builder (the closing piece of the PR 9 loop).
//
// Two ways to fill a (n, family, precision, workers) cell:
//
//   dnc_tune trace1.json trace2.json ... --out table.json
//     Trace mode: every recorded $DNC_TRACE export carries the solve
//     parameters in its meta block (n, nb, precision -- stamped by the
//     drivers; workers is a native trace field). Traces are grouped into
//     cells; the minimum-makespan trace of each cell donates its nb. A
//     Priority-vs-Fifo replay of the winner
//     reports whether the priority scheme matters for that cell.
//
//   dnc_tune --solve --n 600 --type 4 --nb 64,96,128,192 --out table.json
//     Solve mode: generates the Table III matrix and measures every nb
//     in-process (median of --reps), recording the fastest.
//
// The table is versioned JSON; solves consult it via DNC_TUNE_TABLE (see
// dc/tune.hpp for precedence rules). --merge seeds from an existing table
// so repeated sweeps accumulate cells instead of clobbering the file.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/precision.hpp"
#include "common/version.hpp"
#include "dc/api.hpp"
#include "dc/tune.hpp"
#include "matgen/tridiag.hpp"
#include "obs/trace_io.hpp"
#include "runtime/simulator.hpp"
#include "runtime/trace.hpp"

namespace {

using namespace dnc;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [trace.json ...] [--solve] [--out table.json] [options]\n"
      "  trace mode (default): tune cells from recorded $DNC_TRACE exports\n"
      "  --solve              measure each nb in-process instead\n"
      "  --out PATH           table to write (default tune_table.json)\n"
      "  --merge PATH         seed from an existing table first\n"
      "  --family S           provenance label for tuned cells\n"
      "  --n N --type T       solve mode: problem size / Table III type (600, 4)\n"
      "  --workers W          solve mode: worker threads (4)\n"
      "  --prec P             solve mode: f64|f32|f32refine (f64)\n"
      "  --nb LIST            solve mode: candidate widths (64,96,128,192)\n"
      "  --reps R             solve mode: repetitions per candidate (3)\n"
      "  --version            print build id\n",
      argv0);
}

double meta_counter(const rt::Trace& t, const char* key, double fallback) {
  for (const auto& [k, v] : t.meta_counters)
    if (k == key) return v;
  return fallback;
}

std::string meta_string(const rt::Trace& t, const char* key, const char* fallback) {
  for (const auto& [k, v] : t.meta_strings)
    if (k == key) return v;
  return fallback;
}

double trace_makespan(const rt::Trace& t) {
  double t0 = 0.0, t1 = 0.0;
  bool first = true;
  for (const auto& e : t.events) {
    t0 = first ? e.t_start : std::min(t0, e.t_start);
    t1 = first ? e.t_end : std::max(t1, e.t_end);
    first = false;
  }
  return t1 - t0;
}

/// Upserts: a re-tuned (n, family, precision, workers) cell replaces the
/// old entry, new cells append.
void upsert(dc::tune::Table& table, const dc::tune::Entry& e) {
  for (auto& old : table.entries) {
    if (old.n == e.n && old.family == e.family && old.precision == e.precision &&
        old.workers == e.workers) {
      old = e;
      return;
    }
  }
  table.entries.push_back(e);
}

struct Args {
  std::vector<std::string> traces;
  std::string out = "tune_table.json";
  std::string merge;
  std::string family;
  bool solve = false;
  long n = 600;
  int type = 4;
  int workers = 4;
  std::string prec = "f64";
  std::vector<index_t> nbs = {64, 96, 128, 192};
  int reps = 3;
};

int tune_from_traces(const Args& a, dc::tune::Table& table) {
  // cell key -> (makespan, entry) of the best trace seen so far
  std::map<std::tuple<long, std::string, int>, std::pair<double, dc::tune::Entry>> best;
  std::map<std::tuple<long, std::string, int>, rt::Trace> best_trace;
  for (const std::string& path : a.traces) {
    rt::Trace t;
    std::string err;
    if (!obs::load_perfetto_trace_file(path, t, &err)) {
      std::fprintf(stderr, "dnc_tune: skipping %s: %s\n", path.c_str(), err.c_str());
      continue;
    }
    const long n = static_cast<long>(meta_counter(t, "n", 0.0));
    if (n <= 0) {
      std::fprintf(stderr,
                   "dnc_tune: skipping %s: no \"n\" in trace meta (re-record with a "
                   "current build)\n",
                   path.c_str());
      continue;
    }
    dc::tune::Entry e;
    e.n = n;
    e.family = a.family.empty() ? "trace" : a.family;
    e.precision = meta_string(t, "precision", "");
    e.workers = t.workers;
    e.nb = static_cast<index_t>(meta_counter(t, "nb", 0.0));
    e.makespan = trace_makespan(t);
    e.how = "trace-sweep";
    const auto key = std::make_tuple(e.n, e.precision, e.workers);
    const auto it = best.find(key);
    if (it == best.end() || e.makespan < it->second.first) {
      best[key] = {e.makespan, e};
      best_trace[key] = std::move(t);
    }
  }
  for (auto& [key, win] : best) {
    // Priority-scheme what-if on the winning cell: replay the DAG with the
    // engine's priority policy vs plain FIFO.
    const rt::Trace& t = best_trace[key];
    const int w = win.second.workers > 0 ? win.second.workers : 1;
    const double mk_prio = rt::simulate_schedule(t, w, {}, rt::SimPolicy::Priority).makespan;
    const double mk_fifo = rt::simulate_schedule(t, w, {}, rt::SimPolicy::Fifo).makespan;
    upsert(table, win.second);
    std::printf("tuned cell %s from %zu trace(s): makespan %.4fs, replay prio %.4fs vs "
                "fifo %.4fs (%s)\n",
                dc::tune::entry_label(win.second).c_str(), a.traces.size(),
                win.second.makespan, mk_prio, mk_fifo,
                mk_prio <= mk_fifo ? "priorities help or tie" : "fifo would win");
  }
  std::printf("%zu cell(s) tuned from traces\n", best.size());
  return best.empty() ? 1 : 0;
}

int tune_from_solves(const Args& a, dc::tune::Table& table) {
  const matgen::Tridiag base = matgen::table3_matrix(a.type, static_cast<index_t>(a.n));
  dc::tune::Entry winner;
  double best_med = 0.0;
  for (index_t nb : a.nbs) {
    std::vector<double> secs;
    for (int r = 0; r < a.reps; ++r) {
      std::vector<double> d = base.d, e = base.e;
      Matrix v;
      dc::Options opt;
      opt.nb = nb;
      opt.threads = a.workers;
      opt.precision = parse_precision(a.prec.c_str());
      dc::SolveStats stats;
      dc::stedc_taskflow(base.n(), d.data(), e.data(), v, opt, &stats);
      secs.push_back(stats.seconds);
    }
    std::sort(secs.begin(), secs.end());
    const double med = secs[secs.size() / 2];
    std::printf("  nb=%-4lld median %.4fs over %d rep(s)\n", static_cast<long long>(nb), med,
                a.reps);
    if (winner.n == 0 || med < best_med) {
      best_med = med;
      winner.n = a.n;
      winner.family = a.family.empty() ? "type" + std::to_string(a.type) : a.family;
      winner.precision = a.prec;
      winner.workers = a.workers;
      winner.nb = nb;
      winner.makespan = med;
      winner.how = "solve-sweep";
    }
  }
  if (winner.n == 0) return 1;
  upsert(table, winner);
  std::printf("tuned cell %s: median %.4fs\n", dc::tune::entry_label(winner).c_str(),
              best_med);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dnc_tune: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--version") {
      std::printf("dnc_tune %s (%s)\n", dnc::version::kGitCommit, dnc::version::kBuildType);
      return 0;
    } else if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else if (flag == "--solve") {
      a.solve = true;
    } else if (flag == "--out") {
      a.out = next();
    } else if (flag == "--merge") {
      a.merge = next();
    } else if (flag == "--family") {
      a.family = next();
    } else if (flag == "--n") {
      a.n = std::atol(next());
    } else if (flag == "--type") {
      a.type = std::atoi(next());
    } else if (flag == "--workers") {
      a.workers = std::atoi(next());
    } else if (flag == "--prec") {
      a.prec = next();
    } else if (flag == "--reps") {
      a.reps = std::max(1, std::atoi(next()));
    } else if (flag == "--nb") {
      a.nbs.clear();
      for (const char* p = next(); *p != '\0';) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p) break;
        if (v > 0) a.nbs.push_back(static_cast<index_t>(v));
        p = *end == ',' ? end + 1 : end;
      }
      if (a.nbs.empty()) {
        std::fprintf(stderr, "dnc_tune: --nb needs a comma list of widths\n");
        return 2;
      }
    } else if (!flag.empty() && flag[0] == '-') {
      usage(argv[0]);
      return 2;
    } else {
      a.traces.push_back(flag);
    }
  }

  dc::tune::Table table;
  if (!a.merge.empty()) {
    std::string err;
    if (!dc::tune::load_table(a.merge, table, &err)) {
      std::fprintf(stderr, "dnc_tune: cannot merge %s: %s\n", a.merge.c_str(), err.c_str());
      return 1;
    }
  }

  int rc;
  if (a.solve) {
    rc = tune_from_solves(a, table);
  } else {
    if (a.traces.empty()) {
      usage(argv[0]);
      return 2;
    }
    rc = tune_from_traces(a, table);
  }
  if (rc != 0) return rc;

  std::ofstream f(a.out);
  if (!f) {
    std::fprintf(stderr, "dnc_tune: cannot write %s\n", a.out.c_str());
    return 1;
  }
  f << dc::tune::table_to_json(table);
  std::printf("wrote %s (%zu entr%s)\n", a.out.c_str(), table.entries.size(),
              table.entries.size() == 1 ? "y" : "ies");
  return 0;
}

// dnc_metrics: render and diff DNC_METRICS JSON snapshots.
//
//   dnc_metrics <snapshot.json>             render one snapshot
//   dnc_metrics --diff <a.json> <b.json>    render the delta b - a
//   dnc_metrics --prometheus <snapshot.json> re-emit as Prometheus text
//   dnc_metrics --demo [n]                  run an instrumented solve and
//                                           print the live scrape (smoke
//                                           tool for CI and docs)
//
// Snapshots come from a process run with DNC_METRICS=<path> (written at
// exit and every DNC_METRICS_INTERVAL seconds as <path> plus <path>.json)
// or from dnc_trace --metrics-out.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/version.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/metrics.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <snapshot.json>\n"
               "       %s --diff <a.json> <b.json>\n"
               "       %s --prometheus <snapshot.json>\n"
               "       %s --demo [n]\n"
               "       %s --version\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

bool load_snapshot(const char* path, dnc::obs::metrics::Snapshot& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "dnc_metrics: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  std::string err;
  if (!dnc::obs::metrics::parse_snapshot(ss.str(), out, &err)) {
    std::fprintf(stderr, "dnc_metrics: %s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

int run_demo(long n) {
  namespace m = dnc::obs::metrics;
  // The demo is the one mode that generates data itself, so it force-enables
  // collection; everything else just reads files.
  setenv("DNC_METRICS", "1", 0);
  m::refresh_from_env();
  dnc::matgen::Tridiag t = dnc::matgen::table3_matrix(4, n);
  std::vector<double> d = t.d, e = t.e;
  dnc::Matrix v;
  dnc::dc::SolveStats st;
  dnc::dc::stedc_taskflow(t.n(), d.data(), e.data(), v, {}, &st);
  std::fputs(m::render_snapshot(m::scrape()).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && !std::strcmp(argv[1], "--version")) {
    std::printf("dnc_metrics %s (%s)\n", dnc::version::kGitCommit, dnc::version::kBuildType);
    return 0;
  }
  if (argc >= 2 && !std::strcmp(argv[1], "--demo"))
    return run_demo(argc >= 3 ? std::atol(argv[2]) : 400);
  namespace m = dnc::obs::metrics;
  if (argc == 4 && !std::strcmp(argv[1], "--diff")) {
    m::Snapshot a, b;
    if (!load_snapshot(argv[2], a) || !load_snapshot(argv[3], b)) return 1;
    std::fputs(m::render_diff(a, b).c_str(), stdout);
    return 0;
  }
  if (argc == 3 && !std::strcmp(argv[1], "--prometheus")) {
    m::Snapshot s;
    if (!load_snapshot(argv[2], s)) return 1;
    std::fputs(m::prometheus_text(s).c_str(), stdout);
    return 0;
  }
  if (argc == 2 && argv[1][0] != '-') {
    m::Snapshot s;
    if (!load_snapshot(argv[1], s)) return 1;
    std::fputs(m::render_snapshot(s).c_str(), stdout);
    return 0;
  }
  return usage(argv[0]);
}

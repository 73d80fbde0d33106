// Shared pieces of the benchmark runner: the workload table entry, one
// solve through a public entry point, the per-layer ledger of the traced
// run, and a minimal JSON writer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"

namespace perfbench {

enum class Driver { DC, MRRR };

/// One workload of perfbench/layers.json: which driver solves which
/// Table III matrix.
struct Workload {
  std::string name;
  Driver driver = Driver::DC;
  int type = 0;  ///< Table III matrix type
  dnc::index_t n = 0;
};

/// A solve's outputs; reused across the solves of a loop, as a caller in a
/// closed loop keeps its output buffers.
struct Solution {
  std::vector<double> lam;  ///< eigenvalues, ascending
  std::vector<double> e;    ///< scratch copy of the off-diagonal (D&C destroys it)
  dnc::Matrix v;            ///< eigenvectors
};

/// What a traced solve reports back (only the stats of the workload's
/// driver are filled).
struct Probe {
  bool simulate = false;  ///< also replay the DAG on 4 simulated workers
  dnc::dc::SolveStats dc;
  dnc::mrrr::Stats mr;
};

/// Runs one solve with library defaults except `threads`, timing only the
/// public entry point (dc::stedc_taskflow or mrrr::mrrr_solve).
double solve(const Workload& w, const dnc::matgen::Tridiag& t, int threads, Solution& s,
             Probe* probe, long solve_id);

class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[40];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    raw(k, buf);
  }
  void str(const std::string& k, const std::string& v) { raw(k, "\"" + v + "\""); }
  void raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + k + "\": " + json;
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    Json m;
    m.num("value", value);
    m.str("unit", unit);
    raw(name, m.done());
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Inputs of the per-layer ledger, all taken from the traced run.
struct LayerInputs {
  const Workload& w;
  const dnc::matgen::Tridiag& t;
  unsigned long long seed;
  const std::vector<Probe>& traced;  ///< checked 4-thread traced solves
  double untraced_s;                 ///< median 4-thread solve, untraced
  double traced_s;                   ///< median 4-thread solve, traced
  const Probe& sim;                  ///< 1-thread solve replayed on 4 workers
  const Solution& sol;               ///< checked result of that solve
  double ortho, resid, eig_err;      ///< check of the last traced solve
};

/// Fills `out` with every per-layer metric (perfbench/layers.json names
/// them). The timed module calls share `budget` seconds.
void layer_metrics(const LayerInputs& in, double budget, Json& out);

}  // namespace perfbench

// Workload runner of the repository benchmark. perfbench/run.py drives it;
// every mode prints one JSON object as its last stdout line.
//
//   dnc_perfbench gen   WORKLOAD --seed S --input FILE
//       generates the workload's tridiagonal (matgen::table3_matrix) into FILE
//   dnc_perfbench setup WORKLOAD --input FILE
//       one solve in a fresh process: its wall time (cold caches, first touch
//       of the workspaces, one-time lazy initialisation) and the peak RSS
//   dnc_perfbench run   WORKLOAD --input FILE --seed S --seconds T --trace 0|1
//                       [--spans FILE] [--perturb]
//       closed loop of solves; --trace 0 prints the end-to-end metrics,
//       --trace 1 the per-layer metrics (see layers.cpp)
//
// WORKLOAD is --workload NAME --driver dc|mrrr --type T --n N, as listed in
// perfbench/layers.json.
//
// Only public entry points are timed. Every result is checked outside the
// timed region; --perturb corrupts one eigenvalue of every solve before the
// check, so the check must reject all of them.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/version.hpp"
#include "lapack/bisect.hpp"
#include "layers.hpp"
#include "matgen/tridiag.hpp"
#include "runtime/sched.hpp"
#include "spans.hpp"
#include "verify/metrics.hpp"

namespace perfbench {
namespace {

using dnc::index_t;

constexpr int kThreads = 4;

struct Args {
  std::string mode, input, spans;
  Workload w;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  bool perturb = false;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "dnc_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) die("usage: dnc_perfbench gen|setup|run --workload W ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--perturb") {
      a.perturb = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + k);
    const char* v = argv[++i];
    if (k == "--workload") a.w.name = v;
    else if (k == "--driver") a.w.driver = std::string(v) == "mrrr" ? Driver::MRRR : Driver::DC;
    else if (k == "--type") a.w.type = std::atoi(v);
    else if (k == "--n") a.w.n = std::atol(v);
    else if (k == "--input") a.input = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v);
    else die("unknown argument " + k);
  }
  if (a.input.empty() || a.w.name.empty()) die("--workload and --input are required");
  if (a.w.type < 1 || a.w.type > 15 || a.w.n < 2) die("--type must be 1..15 and --n at least 2");
  if (a.seconds <= 0.0) die("--seconds must be positive");
  return a;
}

// ---- input file: the generated (d, e), so every process of a run solves
// the same matrix and generation is paid once per seed ----

void write_input(const std::string& path, const dnc::matgen::Tridiag& t) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) die("cannot write " + path);
  const std::int64_t n = t.n();
  bool ok = std::fwrite(&n, sizeof n, 1, f) == 1 &&
            std::fwrite(t.d.data(), sizeof(double), t.d.size(), f) == t.d.size() &&
            std::fwrite(t.e.data(), sizeof(double), t.e.size(), f) == t.e.size();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) die("short write to " + path);
}

dnc::matgen::Tridiag read_input(const std::string& path, index_t n_expected) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) die("cannot read " + path);
  std::int64_t n = 0;
  dnc::matgen::Tridiag t;
  bool ok = std::fread(&n, sizeof n, 1, f) == 1 && n == n_expected;
  if (ok) {
    t.d.resize(n);
    t.e.resize(n - 1);
    ok = std::fread(t.d.data(), sizeof(double), n, f) == static_cast<std::size_t>(n) &&
         std::fread(t.e.data(), sizeof(double), n - 1, f) == static_cast<std::size_t>(n - 1);
  }
  std::fclose(f);
  if (!ok) die("malformed input file " + path);
  return t;
}

// ---- result check (outside every timed region) ----

struct Check {
  bool ok = false;
  double eig_err = 0.0, resid = 0.0, ortho = -1.0;  ///< ortho < 0: not computed
};

/// Gates of the unit tests: 100 eps residual and orthogonality for D&C
/// (tests/precision), 200 eps orthogonality for MRRR, eigenvalues within
/// 100 n eps (D&C, tests/dc) or 1e-12 (MRRR, tests/mrrr) of bisection.
class Checker {
 public:
  Checker(const Workload& w, const dnc::matgen::Tridiag& t) : w_(w), t_(t) {
    Span s("lapack", "bisect_all");
    ref_ = dnc::lapack::bisect_all(t.n(), t.d.data(), t.e.data());
  }

  Check operator()(const Solution& s, bool ortho, long solve) const {
    constexpr double eps = std::numeric_limits<double>::epsilon();
    const double n = static_cast<double>(t_.n());
    Span sp("verify", "check", solve);
    Check c;
    const bool finite = std::all_of(s.lam.begin(), s.lam.end(),
                                    [](double x) { return std::isfinite(x); });
    if (!finite || s.lam.size() != ref_.size() || !std::is_sorted(s.lam.begin(), s.lam.end()))
      return c;
    c.eig_err = dnc::verify::max_relative_difference(s.lam, ref_);
    c.resid = dnc::verify::reduction_residual(t_, s.lam, s.v);
    if (ortho) c.ortho = dnc::verify::orthogonality(s.v);
    const bool dc = w_.driver == Driver::DC;
    c.ok = c.eig_err < (dc ? 100.0 * n * eps : 1e-12) && c.resid < 100.0 * eps &&
           c.ortho < (dc ? 100.0 : 200.0) * eps;
    return c;
  }

 private:
  Workload w_;
  const dnc::matgen::Tridiag& t_;
  std::vector<double> ref_;
};

// ---- closed-loop measurement ----

struct Loop {
  std::vector<double> times;  ///< wall seconds per successful solve
  long attempted = 0, failed = 0;
  Check first, last;         ///< checks of the first and last solve
  std::vector<Probe> probes;  ///< per-solve layer data (traced loops)
};

struct Runner {
  const Workload& w;
  const dnc::matgen::Tridiag& t;
  const Checker& check;
  bool perturb;
  long next_solve = 0;

  /// One solve + its check. `seconds` is the solve's wall time (up to the
  /// throw, if it threw). Returns false when it threw or failed the check.
  bool solve_checked(int threads, Solution& s, Probe* probe, double& seconds, Check& c,
                     bool ortho) {
    const long id = next_solve++;
    dnc::Stopwatch sw;
    try {
      seconds = solve(w, t, threads, s, probe, id);
    } catch (const std::exception& e) {
      seconds = sw.elapsed();
      std::fprintf(stderr, "dnc_perfbench: solve %ld threw: %s\n", id, e.what());
      return false;
    }
    if (perturb) s.lam[s.lam.size() / 2] *= 1.0 + 1e-6;
    c = check(s, ortho, id);
    return c.ok;
  }

  /// Solves until the solves themselves have taken `budget` seconds (checks
  /// excluded) and at least `min_solves` were attempted. With `ortho`, the
  /// orthogonality check (O(n^3)) runs on the first and the last solve.
  Loop run(int threads, double budget, int min_solves, bool traced, bool ortho) {
    Loop L;
    Solution s;  // reused: a closed-loop caller keeps its output buffers
    double spent = 0.0;
    bool last_ok = false;
    while (L.attempted < min_solves || spent < budget) {
      Probe probe;
      double sec = 0.0;
      Check c;
      const bool ok = solve_checked(threads, s, traced ? &probe : nullptr, sec, c,
                                    ortho && L.attempted == 0);
      spent += sec;
      last_ok = ok;
      ++L.attempted;
      if (ok) {
        L.times.push_back(sec);
        if (traced) L.probes.push_back(std::move(probe));
      } else {
        ++L.failed;
      }
      if (L.attempted == 1) L.first = c;
    }
    // Orthogonality of the last solve, still held in s.
    L.last = L.first;
    if (ortho && L.attempted > 1 && last_ok) {
      L.last = check(s, true, next_solve - 1);
      if (!L.last.ok) ++L.failed;
    }
    return L;
  }
};

/// Highest of a fixed set of percentiles that leaves at least 10 samples
/// beyond it (nearest-rank). Returns false when there are too few samples.
bool tail(std::vector<double> v, double& value, double& pct, long& beyond) {
  static const double kPcts[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0};
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  for (double p : kPcts) {
    const long rank = static_cast<long>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      value = v[rank - 1];
      pct = p;
      beyond = n - rank;
      return true;
    }
  }
  return false;
}

/// Last-level cache size as the kernel reports it (the same sysfs tree the
/// runtime's topology probe reads); sysconf as the fallback.
long l3_bytes() {
  if (std::FILE* f = std::fopen("/sys/devices/system/cpu/cpu0/cache/index3/size", "r")) {
    long kib = 0;
    const bool ok = std::fscanf(f, "%ldK", &kib) == 1;
    std::fclose(f);
    if (ok) return kib * 1024;
  }
  return sysconf(_SC_LEVEL3_CACHE_SIZE);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_stamp(Json& j, const Workload& w, const Args& a) {
  j.str("workload", w.name);
  j.num("n", static_cast<double>(w.n));
  j.num("matrix_type", w.type);
  j.num("seed", static_cast<double>(a.seed));
  j.num("threads", kThreads);
  j.str("git_commit", dnc::version::kGitCommit);
  j.str("build_type", dnc::version::kBuildType);
  j.str("simd", dnc::simd_isa_name(dnc::requested_simd_isa()));
  j.str("sched", dnc::rt::sched_policy_name(dnc::rt::default_sched_policy()));
  j.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  j.num("l3_bytes", static_cast<double>(l3_bytes()));
}

int mode_gen(const Args& a, const Workload& w) {
  const auto t = dnc::matgen::table3_matrix(w.type, w.n, a.seed);
  write_input(a.input, t);
  Json j;
  j.num("n", static_cast<double>(w.n));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

int mode_setup(const Args& a, const Workload& w) {
  const auto t = read_input(a.input, w.n);
  Solution s;
  double sec = 0.0;
  bool ok = true;
  try {
    sec = solve(w, t, kThreads, s, nullptr, 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dnc_perfbench: setup solve threw: %s\n", e.what());
    ok = false;
  }
  const double rss = rss_peak_mb();
  // No bisection reference here (it would dominate the probe): residual,
  // ordering and finiteness only.
  if (ok) {
    if (a.perturb) s.lam[s.lam.size() / 2] *= 1.0 + 1e-6;
    const double resid = dnc::verify::reduction_residual(t, s.lam, s.v);
    ok = resid < 100.0 * std::numeric_limits<double>::epsilon() &&
         std::is_sorted(s.lam.begin(), s.lam.end());
  }
  Json j;
  j.num("setup_s", sec);
  j.num("rss_peak_mb", rss);
  j.num("attempted", 1);
  j.num("failed", ok ? 0 : 1);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

/// The measurement of `run`: fills `out` with metrics, attempted and failed.
void measure(const Args& a, const Workload& w, const dnc::matgen::Tridiag& t, Json& out) {
  const Checker check(w, t);  // bisection reference, once per process
  Runner r{w, t, check, a.perturb};
  long attempted = 0, failed = 0;
  const auto count = [&](const Loop& L) {
    attempted += L.attempted;
    failed += L.failed;
  };
  count(r.run(kThreads, 0.0, 1, false, false));  // warm-up: caches, lazy init

  Json metrics;
  if (!a.trace) {
    const Loop l4 = r.run(kThreads, 0.75 * a.seconds, 12, false, true);
    const Loop l1 = r.run(1, 0.25 * a.seconds, 3, false, false);
    count(l4);
    count(l1);
    double tail_s = 0.0, pct = 100.0;
    long beyond = 0;
    if (!tail(l4.times, tail_s, pct, beyond) && !l4.times.empty())
      tail_s = *std::max_element(l4.times.begin(), l4.times.end());
    metrics.metric("solve_s", median(l4.times), "s");
    metrics.metric("solve_tail_s", tail_s, "s");
    metrics.metric("solve_1t_s", median(l1.times), "s");
    out.num("solves_4t", static_cast<double>(l4.times.size()));
    out.num("solves_1t", static_cast<double>(l1.times.size()));
    out.num("tail_pct", pct);
    out.num("tail_beyond", static_cast<double>(beyond));
    out.num("ortho_first", l4.first.ortho);
    out.num("ortho_last", l4.last.ortho);
  } else {
    // Untraced baseline and traced loop in one process, so their ratio is
    // the tracing overhead.
    SpanRecorder* rec = active_recorder();
    active_recorder() = nullptr;
    const Loop base = r.run(kThreads, 0.3 * a.seconds, 8, false, false);
    active_recorder() = rec;
    const Loop traced = r.run(kThreads, 0.3 * a.seconds, 8, true, true);
    count(base);
    count(traced);
    // One 1-thread solve, its DAG replayed on 4 simulated workers.
    Probe sim;
    sim.simulate = true;
    Solution s;
    double sec = 0.0;
    Check c;
    ++attempted;
    if (!r.solve_checked(1, s, &sim, sec, c, false)) ++failed;
    const LayerInputs in{w,   t, a.seed, traced.probes, median(base.times), median(traced.times),
                         sim, s, traced.last.ortho, traced.last.resid, traced.last.eig_err};
    layer_metrics(in, 0.3 * a.seconds, metrics);
  }
  out.raw("metrics", metrics.done());
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
}

int mode_run(const Args& a, const Workload& w) {
  const auto t = read_input(a.input, w.n);
  SpanRecorder recorder;
  if (a.trace) active_recorder() = &recorder;
  Json out;
  {
    Span root("bench", a.trace ? "traced_run" : "run");
    measure(a, w, t, out);
  }
  active_recorder() = nullptr;
  Json stamp;
  print_stamp(stamp, w, a);
  out.raw("stamp", stamp.done());
  if (a.trace) {
    Json self;
    for (const auto& [module, mt] : recorder.module_times()) {
      Json m;
      m.num("calls", static_cast<double>(mt.calls));
      m.num("total_s", mt.total);
      m.num("self_s", mt.self);
      self.raw(module, m.done());
    }
    out.raw("module_time", self.done());
    if (!a.spans.empty() && !recorder.write_json(a.spans, w.name))
      die("cannot write spans to " + a.spans);
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  const Workload& w = a.w;
  try {
    if (a.mode == "gen") return mode_gen(a, w);
    if (a.mode == "setup") return mode_setup(a, w);
    if (a.mode == "run") return mode_run(a, w);
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what());
  }
  die("unknown mode '" + a.mode + "'");
}

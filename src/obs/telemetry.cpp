#include "obs/telemetry.hpp"

#include <string>

#include "obs/flight.hpp"
#include "obs/history.hpp"
#include "obs/metrics.hpp"

namespace dnc::obs {
namespace {

namespace m = metrics;

std::string solve_labels(const SolveReport& rep) {
  std::string l = "driver=\"";
  l += rep.driver;
  l += "\",precision=\"";
  l += rep.precision.empty() ? "f64" : rep.precision;
  l += "\",size_class=\"";
  l += solve_size_class(rep.n);
  l += "\"";
  return l;
}

void record_metrics(const SolveReport& rep) {
  if (!m::enabled()) return;
  const std::string labels = solve_labels(rep);
  // register_metric dedupes on (name, labels) under the registry lock, so
  // re-registering per solve is a map lookup -- no per-label-set caching
  // needed at solve frequency.
  m::add(m::register_metric(m::Kind::Counter, "dnc_solves_total", labels,
                            "Completed tridiagonal eigensolves"));
  m::observe(m::register_metric(m::Kind::Histogram, "dnc_solve_seconds", labels,
                                "Solve wall-clock latency (s)"),
             rep.seconds);
  std::string dl = "driver=\"" + rep.driver + "\"";
  m::Id defl = m::register_metric(m::Kind::Histogram, "dnc_merge_deflation_ratio", dl,
                                  "Deflated fraction per D&C merge");
  for (const MergeRecord& mr : rep.merges)
    if (mr.m > 0) m::observe(defl, static_cast<double>(mr.m - mr.k) / mr.m);
  const std::uint64_t flops = rep.counter(kGemmFlops);
  if (flops > 0 && rep.seconds > 0.0) {
    std::string pl = "driver=\"" + rep.driver + "\",precision=\"" +
                     (rep.precision.empty() ? "f64" : rep.precision) + "\"";
    m::observe(m::register_metric(m::Kind::Histogram, "dnc_gemm_gflops", pl,
                                  "Per-solve GEMM throughput (GFLOP/s)"),
               static_cast<double>(flops) * 1e-9 / rep.seconds);
  }
  if (rep.has_health) {
    m::observe(m::register_metric(m::Kind::Histogram, "dnc_health_rel_residual", "",
                                  "Sampled-column relative residual ||Tv-lv||/||T||"),
               rep.health.max_rel_residual);
    m::observe(m::register_metric(m::Kind::Histogram, "dnc_health_ortho_error", "",
                                  "Sampled-column orthogonality error"),
               rep.health.max_ortho_error);
  }
  m::set_gauge(m::register_metric(m::Kind::Gauge, "dnc_last_solve_n", "",
                                  "Matrix size of the most recent solve"),
               static_cast<double>(rep.n));
}

}  // namespace

bool solve_telemetry_wanted() noexcept {
  return metrics::enabled() || flight::enabled() || history::enabled();
}

const char* solve_size_class(long n) noexcept {
  if (n < 256) return "xs";
  if (n < 1024) return "s";
  if (n < 4096) return "m";
  if (n < 16384) return "l";
  return "xl";
}

void record_solve_telemetry(const SolveReport& report, const rt::Trace* trace) {
  record_metrics(report);
  // History: one compact archive line per solve when DNC_HISTORY names a file.
  history::note(report);
  if (flight::enabled()) {
    std::string dumped = flight::observe(report, trace);
    if (!dumped.empty() && m::enabled())
      m::add(m::register_metric(m::Kind::Counter, "dnc_flight_dumps_total", "",
                                "Flight-recorder anomaly dumps written"));
  }
}

}  // namespace dnc::obs

// Anomaly flight recorder: a black box for solve postmortems.
//
// A ring buffer retains the last K full SolveReports of the process. When a
// solve breaches a threshold -- relative residual too large, latency too
// long, deflation anomalously low -- the whole ring is dumped as JSONL (one
// compact report per line, newest last) plus a Perfetto trace of the
// triggering solve, so the postmortem sees not just the bad solve but the
// healthy ones leading up to it.
//
// Knobs (all read lazily, refresh_from_env() for tests):
//   DNC_FLIGHT            unset/""/0/off = off; 1/on = on with the default
//                         prefix "dnc_flight.%p"; anything else = dump-file
//                         prefix (%p expands to the pid)
//   DNC_FLIGHT_K          ring capacity (default 8)
//   DNC_FLIGHT_RESID      relative-residual trigger (default 1e-8; applies
//                         only to reports carrying health metrics)
//   DNC_FLIGHT_LATENCY    seconds trigger (default 0 = off)
//   DNC_FLIGHT_DEFL       minimum deflated fraction; a merge-carrying solve
//                         deflating less than this triggers (default 0 = off)
//   DNC_FLIGHT_MAX_DUMPS  per-process dump cap (default 4) so a persistent
//                         condition can't fill the disk
//
// Dump files: <prefix>.<dump#>.jsonl and <prefix>.<dump#>.trace.json.
#pragma once

#include <string>

#include "obs/report.hpp"

namespace dnc::rt {
struct Trace;
}

namespace dnc::obs::flight {

/// One relaxed load + branch once initialised, like metrics::enabled().
bool enabled() noexcept;
void refresh_from_env() noexcept;

struct Thresholds {
  double max_rel_residual = 1e-8;
  double max_seconds = 0.0;        ///< 0 = latency trigger off
  double min_deflated_fraction = 0.0;  ///< 0 = deflation trigger off
};
Thresholds thresholds();

/// Appends the report to the ring; if it trips a threshold (and the dump
/// cap is not exhausted), writes the JSONL + trace dump. Returns the JSONL
/// path, "" when nothing was dumped. No-op ("") when the recorder is off.
std::string observe(const SolveReport& report, const rt::Trace* trace);

/// Strips insignificant whitespace (string-literal aware) so a pretty
/// to_json() report becomes one JSONL line. Exposed for tests.
std::string compact_json(const std::string& pretty);

// Test hooks.
std::size_t ring_size();
unsigned long dump_count();
void reset_for_tests();

}  // namespace dnc::obs::flight

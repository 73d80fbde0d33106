#include "obs/flight.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>

#include "common/env.hpp"
#include "obs/perfetto.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs::flight {
namespace {

struct Entry {
  unsigned long seq = 0;
  std::string timestamp;
  std::string reason;  ///< "" = healthy solve, else the trigger that fired
  SolveReport report;
};

// Leaked singleton, same reasoning as the metrics State: observe() may run
// from driver threads while the process is tearing down.
struct State {
  std::mutex mu;
  std::deque<Entry> ring;
  std::string prefix;        // "" = disabled
  std::size_t capacity = 8;
  Thresholds th;
  unsigned long max_dumps = 4;
  unsigned long seq = 0;
  unsigned long dumps = 0;
};

State& state() {
  static State* s = new State;
  return *s;
}

std::atomic<int> g_enabled{-1};

bool read_env(State& s) {
  const char* e = env::raw("DNC_FLIGHT");
  if (!e || !*e || !std::strcmp(e, "0") || !std::strcmp(e, "off")) return false;
  s.prefix = (!std::strcmp(e, "1") || !std::strcmp(e, "on") || !std::strcmp(e, "true"))
                 ? "dnc_flight.%p"
                 : e;
  long k = static_cast<long>(env::number("DNC_FLIGHT_K", 8));
  s.capacity = static_cast<std::size_t>(k < 1 ? 1 : k);
  s.th.max_rel_residual = env::number("DNC_FLIGHT_RESID", 1e-8);
  s.th.max_seconds = env::number("DNC_FLIGHT_LATENCY", 0.0);
  s.th.min_deflated_fraction = env::number("DNC_FLIGHT_DEFL", 0.0);
  long md = static_cast<long>(env::number("DNC_FLIGHT_MAX_DUMPS", 4));
  s.max_dumps = static_cast<unsigned long>(md < 0 ? 0 : md);
  return true;
}

bool init_enabled() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  int cur = g_enabled.load(std::memory_order_relaxed);
  if (cur >= 0) return cur != 0;
  bool on = read_env(s);
  if (!on) s.prefix.clear();
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

std::string ring_jsonl_locked(const State& s) {
  std::string body;
  for (const Entry& en : s.ring) {
    body += "{\"seq\": ";
    body += std::to_string(en.seq);
    body += ", \"timestamp\": \"" + en.timestamp + "\"";
    body += ", \"reason\": \"" + en.reason + "\"";
    body += ", \"report\": " + compact_json(en.report.to_json()) + "}\n";
  }
  return body;
}

std::string trigger_reason(const State& s, const SolveReport& rep) {
  if (rep.has_health && rep.health.max_rel_residual > s.th.max_rel_residual)
    return "residual";
  if (s.th.max_seconds > 0.0 && rep.seconds > s.th.max_seconds) return "latency";
  if (s.th.min_deflated_fraction > 0.0) {
    const long merged = rep.merged_columns_total();
    if (merged > 0 &&
        static_cast<double>(rep.deflated_total()) / merged < s.th.min_deflated_fraction)
      return "deflation";
  }
  return "";
}

}  // namespace

bool enabled() noexcept {
  int s = g_enabled.load(std::memory_order_relaxed);
  return s < 0 ? init_enabled() : s != 0;
}

void refresh_from_env() noexcept {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  bool on = read_env(s);
  if (!on) s.prefix.clear();
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

Thresholds thresholds() {
  (void)enabled();
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.th;
}

std::string compact_json(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  bool in_string = false;
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    char c = pretty[i];
    if (in_string) {
      out.push_back(c);
      if (c == '\\' && i + 1 < pretty.size()) {
        out.push_back(pretty[++i]);  // escaped char (quote, backslash, ...)
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      out.push_back(c);
    } else if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
      out.push_back(c);
    }
  }
  return out;
}

std::string observe(const SolveReport& report, const rt::Trace* trace) {
  if (!enabled()) return "";
  State& s = state();
  std::string jsonl_path, trace_path, jsonl_body;
  const rt::Trace* dump_trace = nullptr;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    ++s.seq;
    Entry e;
    e.seq = s.seq;
    e.timestamp = report.timestamp.empty() ? iso8601_timestamp_utc() : report.timestamp;
    e.reason = trigger_reason(s, report);
    e.report = report;
    s.ring.push_back(std::move(e));
    while (s.ring.size() > s.capacity) s.ring.pop_front();
    if (s.ring.back().reason.empty() || s.dumps >= s.max_dumps) return "";
    ++s.dumps;
    char base[64];
    std::snprintf(base, sizeof base, ".%lu", s.dumps);
    std::string prefix = expand_path_placeholders(s.prefix, s.dumps) + base;
    jsonl_path = prefix + ".jsonl";
    trace_path = prefix + ".trace.json";
    jsonl_body = ring_jsonl_locked(s);
    dump_trace = trace;
  }
  if (std::FILE* f = std::fopen(jsonl_path.c_str(), "w")) {
    std::fwrite(jsonl_body.data(), 1, jsonl_body.size(), f);
    std::fclose(f);
  } else {
    return "";
  }
  if (dump_trace && !dump_trace->events.empty()) {
    if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
      std::string tj = perfetto_trace_json(*dump_trace, &report);
      std::fwrite(tj.data(), 1, tj.size(), f);
      std::fclose(f);
    }
  }
  return jsonl_path;
}

std::size_t ring_size() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.ring.size();
}

unsigned long dump_count() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.dumps;
}

void reset_for_tests() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.ring.clear();
  s.seq = 0;
  s.dumps = 0;
  bool on = read_env(s);
  if (!on) s.prefix.clear();
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace dnc::obs::flight

#include "obs/history.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/env.hpp"
#include "common/json.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs::history {
namespace {

constexpr long kDefaultMaxBytes = 16L * 1024 * 1024;

struct Config {
  std::string path;
  long max_bytes = kDefaultMaxBytes;
};

std::mutex g_mutex;  // guards the config and file rotation
Config g_config;
std::atomic<int> g_enabled{-1};  // -1 uninitialised, else 0/1

thread_local std::string t_family_hint;

void init_locked() {
  g_config.path = env::str("DNC_HISTORY", "");
  g_config.max_bytes = env::integer("DNC_HISTORY_MAX_BYTES", kDefaultMaxBytes);
  if (g_config.max_bytes < 4096) g_config.max_bytes = 4096;
  g_enabled.store(!g_config.path.empty(), std::memory_order_release);
}

Config config() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_enabled.load(std::memory_order_relaxed) < 0) init_locked();
  return g_config;
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int need = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (need > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(need), sizeof buf - 1));
}

/// Writes `line` (newline-terminated) with a single write(2) so concurrent
/// appenders -- including other processes -- interleave whole lines only.
bool append_line(const std::string& path, const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  const char* p = line.c_str();
  std::size_t left = line.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w <= 0) {
      ok = false;
      break;
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  ::close(fd);
  return ok;
}

void rotate_if_needed_locked(const std::string& path, long cap) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return;
  if (st.st_size < cap) return;
  // One previous generation is enough for a bounded-disk archive; a rename
  // is atomic, so a concurrent appender lands either in the old or the new
  // generation, never in a torn file.
  ::rename(path.c_str(), (path + ".1").c_str());
}

}  // namespace

std::string Record::to_json_line() const {
  std::string out = "{\"schema\": \"dnc-history-v1\"";
  appendf(out, ", \"git_commit\": \"%s\"", rt::json_escape(git_commit).c_str());
  appendf(out, ", \"timestamp\": \"%s\"", rt::json_escape(timestamp).c_str());
  appendf(out, ", \"hostname\": \"%s\"", rt::json_escape(hostname).c_str());
  appendf(out, ", \"driver\": \"%s\"", rt::json_escape(driver).c_str());
  appendf(out, ", \"family\": \"%s\"", rt::json_escape(family).c_str());
  appendf(out, ", \"precision\": \"%s\"", rt::json_escape(precision).c_str());
  appendf(out, ", \"n\": %ld, \"workers\": %d", n, workers);
  appendf(out, ", \"seconds\": %.9f, \"makespan\": %.9f, \"total_idle\": %.9f",
          seconds, makespan, total_idle);
  appendf(out, ", \"deflated_fraction\": %.6f, \"gemm_gflops\": %.3f",
          deflated_fraction, gemm_gflops);
  appendf(out, ", \"max_rel_residual\": %.3e", max_rel_residual);
  appendf(out, ", \"sched_policy\": \"%s\"", rt::json_escape(sched_policy).c_str());
  appendf(out, ", \"tuned\": %s", tuned ? "true" : "false");
  appendf(out, ", \"tune_entry\": \"%s\"}", rt::json_escape(tune_entry).c_str());
  return out;
}

bool enabled() noexcept {
  const int e = g_enabled.load(std::memory_order_acquire);
  if (e >= 0) return e != 0;
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_enabled.load(std::memory_order_relaxed) < 0) init_locked();
  return g_enabled.load(std::memory_order_relaxed) != 0;
}

void refresh_from_env() noexcept {
  std::lock_guard<std::mutex> lock(g_mutex);
  init_locked();
}

std::string archive_path() { return config().path; }
long max_bytes() noexcept { return config().max_bytes; }

void set_family_hint(const char* family) { t_family_hint = family ? family : ""; }
std::string family_hint() { return t_family_hint; }

Record record_from_report(const SolveReport& report) {
  Record r;
  r.git_commit = report.git_commit;
  r.timestamp = report.timestamp;
  r.hostname = report.hostname;
  r.driver = report.driver;
  r.family = t_family_hint;
  r.precision = report.precision.empty() ? "f64" : report.precision;
  r.n = report.n;
  r.workers = report.has_scheduler && report.scheduler.workers > 0
                  ? report.scheduler.workers
                  : std::max(report.threads, 1);
  r.seconds = report.seconds;
  if (report.has_scheduler) {
    r.makespan = report.scheduler.makespan;
    r.total_idle = report.scheduler.total_idle;
    r.sched_policy = report.scheduler.policy;
  }
  const long merged = report.merged_columns_total();
  if (merged > 0)
    r.deflated_fraction = static_cast<double>(report.deflated_total()) / merged;
  if (report.counter(kGemmFlops) > 0 && report.seconds > 0.0)
    r.gemm_gflops = static_cast<double>(report.counter(kGemmFlops)) * 1e-9 / report.seconds;
  if (report.has_health) r.max_rel_residual = report.health.max_rel_residual;
  r.tuned = report.tuned;
  r.tune_entry = report.tune_entry;
  return r;
}

bool append(const Record& rec) {
  const Config cfg = config();
  if (cfg.path.empty()) return false;
  const std::string line = rec.to_json_line() + "\n";
  // Rotation check and append under the process lock; cross-process safety
  // comes from the atomic rename + O_APPEND single-write combination.
  std::lock_guard<std::mutex> lock(g_mutex);
  rotate_if_needed_locked(cfg.path, cfg.max_bytes);
  return append_line(cfg.path, line);
}

void note(const SolveReport& report) {
  if (enabled()) append(record_from_report(report));
}

bool Key::matches(const Record& r) const {
  if (!driver.empty() && driver != r.driver) return false;
  if (!family.empty() && family != r.family) return false;
  if (!precision.empty() && precision != r.precision) return false;
  if (!commit.empty() && commit != r.git_commit) return false;
  if (n > 0 && n != r.n) return false;
  if (workers > 0 && workers != r.workers) return false;
  return true;
}

bool parse_key(const std::string& spec, Key& out, std::string* err) {
  out = Key{};
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      if (err) *err = "key field '" + field + "' has no '=' (want name=value)";
      return false;
    }
    const std::string name = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (name == "driver") {
      out.driver = value;
    } else if (name == "family") {
      out.family = value;
    } else if (name == "precision" || name == "prec") {
      out.precision = value;
    } else if (name == "commit") {
      out.commit = value;
    } else if (name == "n") {
      out.n = std::strtol(value.c_str(), nullptr, 10);
      if (out.n <= 0) {
        if (err) *err = "key field n wants a positive integer, got '" + value + "'";
        return false;
      }
    } else if (name == "workers") {
      out.workers = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
      if (out.workers <= 0) {
        if (err) *err = "key field workers wants a positive integer, got '" + value + "'";
        return false;
      }
    } else {
      if (err)
        *err = "unknown key field '" + name +
               "' (known: driver, family, precision, commit, n, workers)";
      return false;
    }
  }
  return true;
}

bool load_file(const std::string& path, std::vector<Record>& out, std::string* err,
               long* skipped) {
  out.clear();
  if (skipped) *skipped = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::string line;
  char buf[4096];
  const auto flush_line = [&]() {
    if (line.empty()) return;
    json::Value v;
    Record r;
    if (json::parse(line, v) && v.is_object() && v.find("driver")) {
      r.git_commit = v.member_string("git_commit", "");
      r.timestamp = v.member_string("timestamp", "");
      r.hostname = v.member_string("hostname", "");
      r.driver = v.member_string("driver", "");
      r.family = v.member_string("family", "");
      r.precision = v.member_string("precision", "f64");
      r.n = static_cast<long>(v.member_number("n", 0));
      r.workers = static_cast<int>(v.member_number("workers", 0));
      r.seconds = v.member_number("seconds", 0.0);
      r.makespan = v.member_number("makespan", 0.0);
      r.total_idle = v.member_number("total_idle", 0.0);
      r.deflated_fraction = v.member_number("deflated_fraction", 0.0);
      r.gemm_gflops = v.member_number("gemm_gflops", 0.0);
      r.max_rel_residual = v.member_number("max_rel_residual", 0.0);
      r.sched_policy = v.member_string("sched_policy", "");
      if (const json::Value* t = v.find("tuned")) r.tuned = t->bool_or(false);
      r.tune_entry = v.member_string("tune_entry", "");
      out.push_back(std::move(r));
    } else if (skipped) {
      ++*skipped;
    }
    line.clear();
  };
  while (std::fgets(buf, sizeof buf, f)) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      flush_line();
    }
  }
  flush_line();  // last line without trailing newline
  std::fclose(f);
  return true;
}

std::vector<Record> series(const std::vector<Record>& records, const Key& key) {
  std::vector<Record> out;
  for (const Record& r : records)
    if (key.matches(r)) out.push_back(r);
  return out;
}

std::vector<Record> latest_per_commit(const std::vector<Record>& records,
                                      const Key& key) {
  std::vector<Record> out;  // first-seen commit order, newest record each
  for (const Record& r : records) {
    if (!key.matches(r)) continue;
    bool found = false;
    for (Record& o : out) {
      if (o.git_commit == r.git_commit) {
        o = r;  // file order is append order: later = newer
        found = true;
        break;
      }
    }
    if (!found) out.push_back(r);
  }
  return out;
}

std::string render_series(const std::vector<Record>& series, const std::string& title) {
  std::string out;
  appendf(out, "=== history: %s (%zu records) ===\n", title.c_str(), series.size());
  if (series.empty()) {
    out += "(no matching records)\n";
    return out;
  }
  double lo = series.front().seconds, hi = lo;
  std::vector<double> secs;
  secs.reserve(series.size());
  for (const Record& r : series) {
    lo = std::min(lo, r.seconds);
    hi = std::max(hi, r.seconds);
    secs.push_back(r.seconds);
  }
  const double span = hi > lo ? hi - lo : 1.0;
  appendf(out, "%-10s %-20s %-12s %6s %3s %10s %8s  %s\n", "commit", "timestamp", "driver",
          "n", "wrk", "seconds", "defl", "trend");
  constexpr int kBar = 24;
  for (const Record& r : series) {
    const int bar = 1 + static_cast<int>((r.seconds - lo) / span * (kBar - 1));
    std::string commit = r.git_commit.substr(0, 9);
    if (commit.empty()) commit = "-";
    appendf(out, "%-10s %-20s %-12s %6ld %3d %10.6f %7.1f%%  ", commit.c_str(),
            r.timestamp.empty() ? "-" : r.timestamp.c_str(), r.driver.c_str(), r.n,
            r.workers, r.seconds, 100.0 * r.deflated_fraction);
    out.append(static_cast<std::size_t>(bar), '#');
    out += '\n';
  }
  std::sort(secs.begin(), secs.end());
  const double median = secs[secs.size() / 2];
  appendf(out, "min %.6f s   median %.6f s   max %.6f s   (max/min %.2fx)\n", lo, median,
          hi, lo > 0.0 ? hi / lo : 0.0);
  return out;
}

}  // namespace dnc::obs::history

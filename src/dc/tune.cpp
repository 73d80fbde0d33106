#include "dc/tune.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/env.hpp"
#include "common/json.hpp"
#include "common/precision.hpp"
#include "dc/options.hpp"
#include "obs/report.hpp"

namespace dnc::dc::tune {
namespace {

/// The built-in Options defaults the table is allowed to replace. Kept in
/// sync with options.hpp by TuneTest.DefaultsMatchOptions.
constexpr index_t kDefaultNb = 128;

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Pending consultation of this thread's last apply_env_tuning(), consumed
/// by the next finish_report() on the same thread (drivers run the solve
/// and its report epilogue on the calling thread).
struct PendingStamp {
  bool tuned = false;
  std::string source;
  std::string entry;
};
thread_local PendingStamp tls_pending;

/// Per-path cache keyed on mtime+size so tests (and long-lived services)
/// that rewrite the table pick up the new contents without re-parsing on
/// every solve.
struct CachedTable {
  long mtime = -1;
  long size = -1;
  bool ok = false;
  Table table;
};

const CachedTable* cached_table(const std::string& path) {
  static std::mutex mu;
  static std::map<std::string, CachedTable> cache;
  struct stat st {};
  const bool statted = ::stat(path.c_str(), &st) == 0;
  const long mtime = statted ? static_cast<long>(st.st_mtime) : -1;
  const long size = statted ? static_cast<long>(st.st_size) : -1;
  std::lock_guard<std::mutex> lock(mu);
  CachedTable& slot = cache[path];
  if (slot.mtime != mtime || slot.size != size) {
    slot.mtime = mtime;
    slot.size = size;
    std::string err;
    slot.ok = statted && load_table(path, slot.table, &err);
    if (!slot.ok && statted)
      std::fprintf(stderr, "dnc: ignoring DNC_TUNE_TABLE %s: %s\n", path.c_str(),
                   err.c_str());
  }
  return &slot;
}

}  // namespace

bool parse_table(const std::string& json_text, Table& out, std::string* err) {
  out = Table{};
  json::Value root;
  if (!json::parse(json_text, root, err)) return false;
  if (!root.is_object()) {
    if (err) *err = "table is not a JSON object";
    return false;
  }
  out.version = static_cast<int>(root.member_number("version", 0.0));
  if (out.version != 1) {
    if (err) *err = "unsupported tuning-table version " + std::to_string(out.version);
    return false;
  }
  const json::Value* entries = root.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    if (err) *err = "no entries array";
    return false;
  }
  for (const json::Value& e : entries->array) {
    if (!e.is_object()) continue;
    Entry en;
    en.n = static_cast<long>(e.member_number("n", 0.0));
    en.family = e.member_string("family", "");
    en.precision = e.member_string("precision", "");
    en.workers = static_cast<int>(e.member_number("workers", 0.0));
    en.nb = static_cast<index_t>(e.member_number("nb", 0.0));
    en.makespan = e.member_number("makespan", 0.0);
    en.how = e.member_string("how", "");
    if (en.n > 0) out.entries.push_back(std::move(en));
  }
  return true;
}

bool load_table(const std::string& path, Table& out, std::string* err) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  if (!parse_table(ss.str(), out, err)) return false;
  out.source = path;
  return true;
}

std::string table_to_json(const Table& t) {
  std::string out = "{\n  \"version\": " + std::to_string(t.version) + ",\n  \"entries\": [";
  for (std::size_t i = 0; i < t.entries.size(); ++i) {
    const Entry& e = t.entries[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.6g", e.makespan);
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"n\": " + std::to_string(e.n) + ", \"family\": \"" + escape(e.family) +
           "\", \"precision\": \"" + escape(e.precision) +
           "\", \"workers\": " + std::to_string(e.workers) +
           ", \"nb\": " + std::to_string(e.nb) + ", \"makespan\": " + buf +
           ", \"how\": \"" + escape(e.how) + "\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

const Entry* lookup(const Table& t, long n, const std::string& precision, int workers) {
  const Entry* best = nullptr;
  long best_dist = 0;
  for (const Entry& e : t.entries) {
    if (!e.precision.empty() && e.precision != precision) continue;
    if (e.workers != 0 && workers != 0 && e.workers != workers) continue;
    const long dist = e.n > n ? e.n - n : n - e.n;
    if (best == nullptr || dist < best_dist || (dist == best_dist && e.n < best->n)) {
      best = &e;
      best_dist = dist;
    }
  }
  return best;
}

std::string entry_label(const Entry& e) {
  std::string s = "n=" + std::to_string(e.n);
  if (!e.family.empty()) s += " family=" + e.family;
  if (!e.precision.empty()) s += " precision=" + e.precision;
  if (e.workers != 0) s += " workers=" + std::to_string(e.workers);
  if (e.nb > 0) s += " nb=" + std::to_string(e.nb);
  return s;
}

bool apply_env_tuning(Options& opt, index_t n) {
  tls_pending = PendingStamp{};
  const char* path = env::raw("DNC_TUNE_TABLE");
  if (path == nullptr || *path == '\0' || n <= 0) return false;
  const CachedTable* cached = cached_table(path);
  if (!cached->ok) return false;
  const Entry* e =
      lookup(cached->table, static_cast<long>(n), precision_name(opt.precision), opt.threads);
  if (e == nullptr) return false;
  // An explicit Options::nb wins: only the built-in default is replaced.
  if (e->nb > 0 && opt.nb == kDefaultNb) opt.nb = e->nb;
  tls_pending.tuned = true;
  tls_pending.source = path;
  tls_pending.entry = entry_label(*e);
  return true;
}

void stamp_report(obs::SolveReport& rep) {
  rep.tuned = tls_pending.tuned;
  rep.tune_source = tls_pending.source;
  rep.tune_entry = tls_pending.entry;
}

}  // namespace dnc::dc::tune

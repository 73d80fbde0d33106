#include "obs/perfetto.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "obs/report.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs {
namespace {

// Trace timestamps are seconds on a shared process epoch; trace-event ts is
// microseconds.
inline double us(double seconds) { return seconds * 1e6; }

}  // namespace

std::string perfetto_trace_json(const rt::Trace& trace, const SolveReport* report) {
  std::string out = "[\n";
  bool first = true;
  const auto emit = [&](const char* obj) {
    if (!first) out += ",\n";
    out += obj;
    first = false;
  };
  char buf[512];

  // --- metadata: label the process and one thread row per worker. Shared
  // with Trace::chrome_trace_json so every export call (including the
  // sequence-suffixed trace.2.json files) carries exactly one
  // self-contained process-metadata prologue. ---
  emit(rt::chrome_metadata_json(trace.workers).c_str());

  // --- dnc-specific metadata (ignored by Perfetto, consumed by
  // obs::load_perfetto_trace): the kind table with its memory-bound flags,
  // the per-worker idle seconds, and -- as a separate record because it can
  // be large -- the dependency edge list. Together with the slices below
  // this makes the export a lossless round trip of rt::Trace. ---
  {
    std::string meta = "{\"name\":\"dnc_meta\",\"ph\":\"M\",\"pid\":1,\"args\":{";
    std::snprintf(buf, sizeof buf, "\"workers\":%d,\"kinds\":[", trace.workers);
    meta += buf;
    for (std::size_t k = 0; k < trace.kind_names.size(); ++k) {
      const bool mb =
          k < trace.kind_memory_bound.size() && trace.kind_memory_bound[k] != 0;
      std::snprintf(buf, sizeof buf, "%s{\"name\":\"%s\",\"memory_bound\":%s}",
                    k ? "," : "", rt::json_escape(trace.kind_names[k]).c_str(),
                    mb ? "true" : "false");
      meta += buf;
    }
    meta += "],\"worker_idle\":[";
    for (std::size_t w = 0; w < trace.worker_idle.size(); ++w) {
      std::snprintf(buf, sizeof buf, "%s%.9f", w ? "," : "", trace.worker_idle[w]);
      meta += buf;
    }
    meta += "]";
    if (!trace.sched_policy.empty()) {
      std::snprintf(buf, sizeof buf, ",\"sched_policy\":\"%s\",\"queue_depth_peak\":%d",
                    rt::json_escape(trace.sched_policy).c_str(), trace.queue_depth_peak);
      meta += buf;
    }
    if (!trace.sched_counters.empty()) {
      meta += ",\"sched_counters\":[";
      for (std::size_t w = 0; w < trace.sched_counters.size(); ++w) {
        const rt::WorkerSchedCounters& c = trace.sched_counters[w];
        std::snprintf(buf, sizeof buf,
                      "%s{\"executed\":%ld,\"local_pops\":%ld,\"steals\":%ld,"
                      "\"steal_attempts\":%ld,\"failed_steals\":%ld,\"placed\":%ld,"
                      "\"steals_same_l3\":%ld,\"steals_same_socket\":%ld,"
                      "\"steals_cross_socket\":%ld}",
                      w ? "," : "", c.executed, c.local_pops, c.steals, c.steal_attempts,
                      c.failed_steals, c.placed, c.steals_same_l3, c.steals_same_socket,
                      c.steals_cross_socket);
        meta += buf;
      }
      meta += "]";
    }
    if (!trace.hwc_backend.empty()) {
      std::snprintf(buf, sizeof buf, ",\"hwc_backend\":\"%s\",\"hwc_slots\":[",
                    rt::json_escape(trace.hwc_backend).c_str());
      meta += buf;
      for (std::size_t s = 0; s < trace.hwc_slot_names.size(); ++s) {
        std::snprintf(buf, sizeof buf, "%s\"%s\"", s ? "," : "",
                      rt::json_escape(trace.hwc_slot_names[s]).c_str());
        meta += buf;
      }
      meta += "]";
    }
    // Named solve-wide scalars (GEMM FLOP / packed-byte totals, ...): taken
    // from the trace when it already carries them (a reloaded trace does),
    // topped up from the report's counters on a live export. These are what
    // lets `dnc_trace --roofline` work on a bare trace file.
    {
      std::vector<std::pair<std::string, double>> mc = trace.meta_counters;
      const auto have = [&](const char* name) {
        for (const auto& [k, v] : mc)
          if (k == name) return true;
        return false;
      };
      if (report) {
        if (!have("gemm_flops"))
          mc.emplace_back("gemm_flops", static_cast<double>(report->counter(kGemmFlops)));
        if (!have("gemm_packed_bytes"))
          mc.emplace_back("gemm_packed_bytes",
                          static_cast<double>(report->counter(kGemmPackedBytes)));
        // Working precision of the solve, so a reloaded trace can scale the
        // roofline peak correctly (fp32 kernels peak at 2x the fp64 rate).
        if (!have("precision_bits"))
          mc.emplace_back("precision_bits", static_cast<double>(report->precision_bits()));
        // Problem size, so dnc_diff can align bare trace files by identity.
        if (!have("n") && report->n > 0)
          mc.emplace_back("n", static_cast<double>(report->n));
      }
      if (!mc.empty()) {
        meta += ",\"meta_counters\":{";
        for (std::size_t i = 0; i < mc.size(); ++i) {
          std::snprintf(buf, sizeof buf, "%s\"%s\":%.9g", i ? "," : "",
                        rt::json_escape(mc[i].first).c_str(), mc[i].second);
          meta += buf;
        }
        meta += "}";
      }
    }
    // String metadata, same top-up rule: the report's hostname/timestamp
    // stamps keep traces from different machines and runs distinguishable.
    {
      std::vector<std::pair<std::string, std::string>> ms = trace.meta_strings;
      const auto have = [&](const char* name) {
        for (const auto& [k, v] : ms)
          if (k == name) return true;
        return false;
      };
      if (report) {
        if (!have("hostname") && !report->hostname.empty())
          ms.emplace_back("hostname", report->hostname);
        if (!have("timestamp") && !report->timestamp.empty())
          ms.emplace_back("timestamp", report->timestamp);
        // Solve identity, so dnc_diff can label and align bare trace files.
        if (!have("driver") && !report->driver.empty())
          ms.emplace_back("driver", report->driver);
        if (!have("git_commit") && !report->git_commit.empty())
          ms.emplace_back("git_commit", report->git_commit);
      }
      if (!ms.empty()) {
        meta += ",\"meta_strings\":{";
        for (std::size_t i = 0; i < ms.size(); ++i) {
          std::snprintf(buf, sizeof buf, "%s\"%s\":\"%s\"", i ? "," : "",
                        rt::json_escape(ms[i].first).c_str(),
                        rt::json_escape(ms[i].second).c_str());
          meta += buf;
        }
        meta += "}";
      }
    }
    meta += "}}";
    emit(meta.c_str());
  }
  {
    std::string meta = "{\"name\":\"dnc_edges\",\"ph\":\"M\",\"pid\":1,"
                       "\"args\":{\"edges\":[";
    for (std::size_t i = 0; i < trace.edges.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s[%llu,%llu]", i ? "," : "",
                    static_cast<unsigned long long>(trace.edges[i].first),
                    static_cast<unsigned long long>(trace.edges[i].second));
      meta += buf;
    }
    meta += "]}}";
    emit(meta.c_str());
  }

  // --- slices: one complete event per executed task, with args ---
  std::unordered_map<std::uint64_t, const rt::TraceEvent*> by_id;
  by_id.reserve(trace.events.size());
  for (const auto& e : trace.events) {
    if (e.worker < 0) continue;  // never executed
    by_id.emplace(e.task_id, &e);
    const std::string name =
        (e.kind >= 0 && e.kind < static_cast<int>(trace.kind_names.size()))
            ? rt::json_escape(trace.kind_names[e.kind])
            : std::string("task");
    std::string args;
    char a[96];
    std::snprintf(a, sizeof a, "\"task\":%llu", static_cast<unsigned long long>(e.task_id));
    args += a;
    if (e.t_ready > 0.0) {
      std::snprintf(a, sizeof a, ",\"ready_wait_us\":%.3f",
                    us(std::max(e.t_start - e.t_ready, 0.0)));
      args += a;
    }
    if (e.level >= 0) {
      std::snprintf(a, sizeof a, ",\"level\":%d", e.level);
      args += a;
    }
    if (e.size >= 0) {
      std::snprintf(a, sizeof a, ",\"size\":%ld", e.size);
      args += a;
    }
    if (e.panel >= 0) {
      std::snprintf(a, sizeof a, ",\"panel\":%ld", e.panel);
      args += a;
    }
    if (e.priority != 0) {
      std::snprintf(a, sizeof a, ",\"prio\":%d", e.priority);
      args += a;
    }
    // Nested subtasks: parent id + the parent-side helped-time so a
    // reloaded trace reconstructs self-time accounting losslessly.
    if (e.is_child()) {
      std::snprintf(a, sizeof a, ",\"parent\":%lld", e.parent);
      args += a;
    }
    if (e.nested > 0.0) {
      std::snprintf(a, sizeof a, ",\"nested_us\":%.3f", us(e.nested));
      args += a;
    }
    if (!trace.hwc_backend.empty()) {
      char h[128];
      std::snprintf(h, sizeof h, ",\"hwc\":[%llu,%llu,%llu,%llu]",
                    static_cast<unsigned long long>(e.hwc[0]),
                    static_cast<unsigned long long>(e.hwc[1]),
                    static_cast<unsigned long long>(e.hwc[2]),
                    static_cast<unsigned long long>(e.hwc[3]));
      args += h;
    }
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                  name.c_str(), e.worker, us(e.t_start), us(e.t_end - e.t_start), args.c_str());
    emit(buf);
  }

  // --- flow events: one arrow per dependency edge between executed tasks.
  // The start binds to the predecessor's slice at its end; the finish binds
  // to the successor's slice at its start (bp:"e" = enclosing slice). ---
  std::uint64_t flow_id = 0;
  for (const auto& [pred, succ] : trace.edges) {
    const auto pi = by_id.find(pred);
    const auto si = by_id.find(succ);
    if (pi == by_id.end() || si == by_id.end()) continue;
    const rt::TraceEvent* p = pi->second;
    const rt::TraceEvent* s = si->second;
    ++flow_id;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\",\"id\":%llu,"
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                  static_cast<unsigned long long>(flow_id), p->worker, us(p->t_end));
    emit(buf);
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%llu,"
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                  static_cast<unsigned long long>(flow_id), s->worker, us(s->t_start));
    emit(buf);
  }

  // --- counter track: sampled ready-queue depth ---
  for (const auto& q : trace.queue_samples) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"ready_queue_depth\",\"ph\":\"C\",\"pid\":1,"
                  "\"ts\":%.3f,\"args\":{\"depth\":%d}}",
                  us(q.t), q.depth);
    emit(buf);
  }

  // --- counter track: cumulative successful steals ---
  for (const auto& s : trace.steal_samples) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"steals_cumulative\",\"ph\":\"C\",\"pid\":1,"
                  "\"ts\":%.3f,\"args\":{\"steals\":%d}}",
                  us(s.t), s.depth);
    emit(buf);
  }

  // --- counter tracks: cumulative hardware-counter totals, one track per
  // slot, stepped at each task's end (hwc runs only) ---
  if (!trace.hwc_backend.empty()) {
    std::vector<const rt::TraceEvent*> done;
    for (const auto& e : trace.events)
      if (e.worker >= 0) done.push_back(&e);
    std::sort(done.begin(), done.end(),
              [](const rt::TraceEvent* a, const rt::TraceEvent* b) { return a->t_end < b->t_end; });
    for (int s = 0; s < rt::kHwcSlots; ++s) {
      const std::string slot = s < static_cast<int>(trace.hwc_slot_names.size())
                                   ? trace.hwc_slot_names[s]
                                   : "slot" + std::to_string(s);
      std::uint64_t cum = 0;
      for (const rt::TraceEvent* e : done) {
        cum += e->hwc[s];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"hwc_%s_cumulative\",\"ph\":\"C\",\"pid\":1,"
                      "\"ts\":%.3f,\"args\":{\"%s\":%llu}}",
                      rt::json_escape(slot).c_str(), us(e->t_end),
                      rt::json_escape(slot).c_str(), static_cast<unsigned long long>(cum));
        emit(buf);
      }
    }
  }

  // --- counter track: cumulative deflated columns, stepped at each merge's
  // deflation finish (merges without a timestamp are skipped) ---
  if (report) {
    std::vector<const MergeRecord*> timed;
    for (const auto& m : report->merges)
      if (m.t_end > 0.0) timed.push_back(&m);
    std::sort(timed.begin(), timed.end(),
              [](const MergeRecord* a, const MergeRecord* b) { return a->t_end < b->t_end; });
    long cum = 0;
    for (const MergeRecord* m : timed) {
      cum += m->m - m->k;
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"deflated_cumulative\",\"ph\":\"C\",\"pid\":1,"
                    "\"ts\":%.3f,\"args\":{\"columns\":%ld}}",
                    us(m->t_end), cum);
      emit(buf);
    }
  }

  out += "\n]\n";
  return out;
}

}  // namespace dnc::obs

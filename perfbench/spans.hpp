// Span recorder of the benchmark's traced run: one span around every call
// the benchmark makes into a library module (name, module, start, end,
// parent span, solve id). Spans stay in memory and are written out once,
// when the run ends; each module's self time is derived from them.
//
// With no recorder installed (the untraced run) a Span costs one branch.
// Single-threaded: the benchmark calls into the library from its main thread.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/timer.hpp"

namespace perfbench {

struct SpanRecord {
  const char* module;  ///< library module called: "dc", "blas", ... ("bench" = harness)
  const char* name;    ///< entry point, e.g. "stedc_taskflow"
  double start = 0.0;  ///< dnc::now_seconds() clock
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at the top
  long solve = -1;     ///< solve id the span belongs to (-1: not part of a solve)
};

class SpanRecorder {
 public:
  int open(const char* module, const char* name, long solve) {
    spans_.push_back({module, name, dnc::now_seconds(), 0.0, open_.empty() ? -1 : open_.back(),
                      solve});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int id) {
    spans_[id].end = dnc::now_seconds();
    open_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  struct ModuleTime {
    long calls = 0;
    double total = 0.0;  ///< summed span durations
    double self = 0.0;   ///< total minus the time covered by child spans
  };

  /// Self time per module: a span's duration minus its direct children's.
  std::map<std::string, ModuleTime> module_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    std::map<std::string, ModuleTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      ModuleTime& m = out[spans_[i].module];
      const double dur = spans_[i].end - spans_[i].start;
      ++m.calls;
      m.total += dur;
      m.self += dur - child[i];
    }
    return out;
  }

  /// Chrome trace-event JSON (one complete event per span; loads in
  /// Perfetto), labelled with the workload. Returns false when the file
  /// cannot be written.
  bool write_json(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"otherData\": {\"workload\": \"%s\"}, \"traceEvents\": [\n",
                 workload.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s.%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d, \"solve\": %ld}}",
                   i ? ",\n" : "", s.module, s.name, s.module, s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent, s.solve);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// The recorder of the traced run; null while untraced.
inline SpanRecorder*& active_recorder() {
  static SpanRecorder* rec = nullptr;
  return rec;
}

/// RAII span around one call into a module.
class Span {
 public:
  Span(const char* module, const char* name, long solve = -1) {
    if (SpanRecorder* r = active_recorder()) id_ = r->open(module, name, solve);
  }
  ~Span() {
    if (id_ >= 0) active_recorder()->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

}  // namespace perfbench

// In-process sampling CPU profiler: per-thread SIGPROF timers, async-signal-
// safe frame-pointer backtraces, flamegraph-compatible folded-stack export.
//
// Post-mortem traces answer "where did the tasks go"; this profiler answers
// "where did the *cycles* go inside the task bodies" -- without
// recompiling. Every scheduler worker registers itself while sampling is
// wanted (ThreadRegistration below); while a profiling session is active,
// each registered thread owns a POSIX timer on its own CPU-time clock (timer_create on pthread_getcpuclockid, SIGEV_THREAD_ID)
// that delivers SIGPROF to that thread at DNC_PROFILE_HZ. The handler walks
// the frame-pointer chain from the interrupted context (bounded by the
// thread's stack extents, so a frame-pointer-less libc frame terminates the
// walk instead of faulting) into a per-thread single-producer ring; a
// drain merges rings into a process-wide aggregate keyed by
// (thread tag, worker id, current task kind, call stack). Symbolization
// (dladdr + demangling) happens only at dump time, never in the handler.
//
// Attribution: the scheduler worker loop stamps the interned name of the
// task kind it is about to run (ThreadRegistration::set_task), so every
// sample carries "which worker" and "which solver kernel" as synthetic root
// frames -- folded lines look like
//   worker:3;task:UpdateVect;dnc::blas::gemm(...);... 42
//
// Knobs:
//   DNC_PROFILE_HZ  unset/0/off = no continuous profiling (explicit
//                   start()/stop() sessions still work); a number = sample
//                   each busy thread at that rate for the life of the
//                   process; 1/on/true = the default 97 Hz (prime, so it does not
//                   beat against 10ms-quantised work).
//   DNC_PROFILE     folded-stack dump path for continuous mode, written at
//                   process exit (default dnc_profile.folded; %p -> pid).
//
// Zero-cost contract: with DNC_PROFILE_HZ unset and no session running,
// ThreadRegistration is two relaxed loads + a branch and nothing allocates
// (the back-to-back perf gate polices this).
#pragma once

#include <cstdint>
#include <string>

namespace dnc::obs::profiler {

/// 97 Hz: prime, low enough to stay under 1% overhead, high enough that a
/// 100 ms merge still collects ~10 samples per busy core.
inline constexpr int kDefaultHz = 97;
/// Deepest recorded call chain; deeper frames are dropped (counted).
inline constexpr int kMaxDepth = 48;
/// Per-thread sample ring capacity. At 97 Hz a full ring holds ~5 s of one
/// thread's samples between drains; the background drainer empties it every
/// 500 ms, so drops only occur at extreme rates.
inline constexpr int kRingCapacity = 512;

/// True when DNC_PROFILE_HZ requests continuous whole-process profiling.
bool env_enabled() noexcept;
/// Configured rate: DNC_PROFILE_HZ's value, kDefaultHz for bare "1"/"on".
int env_hz() noexcept;
/// True when worker threads should register themselves: continuous
/// profiling is configured OR a start() session is running (threads created
/// during the session are then sampled). Two relaxed loads when everything
/// is off.
bool registration_wanted() noexcept;
/// Re-reads DNC_PROFILE_HZ / DNC_PROFILE (tests setenv mid-process).
void refresh_from_env() noexcept;

/// Interns a string into the process-lifetime string table; the returned
/// pointer stays valid forever, so samples can carry it across the death of
/// the TaskGraph whose kind table produced it.
const char* intern(const std::string& s);

/// RAII registration of the calling thread as a sampling target. `tag`
/// must be a string with static (or interned) lifetime -- "worker" for
/// scheduler workers (the process's only thread source). When a profiling
/// session is already active, the constructor arms this thread's timer
/// immediately; the destructor disarms, blocks SIGPROF on the thread and
/// drains the remaining samples into the aggregate.
class ThreadRegistration {
 public:
  ThreadRegistration(const char* tag, int id) noexcept;
  ~ThreadRegistration();
  ThreadRegistration(const ThreadRegistration&) = delete;
  ThreadRegistration& operator=(const ThreadRegistration&) = delete;

  /// True when the thread actually registered (registration_wanted() held).
  bool active() const noexcept { return state_ != nullptr; }
  /// Attribute subsequent samples to `interned_kind` (an intern() result or
  /// a static string; nullptr = unattributed). One relaxed store.
  void set_task(const char* interned_kind) noexcept;

 private:
  void* state_ = nullptr;
};

/// Starts a profiling session at `hz` (<= 0 uses DNC_PROFILE_HZ / default):
/// installs the SIGPROF handler and arms one timer per registered thread.
/// Threads registering mid-session are armed on registration. Returns false
/// when a session is already active or no timer could be created.
bool start(int hz = 0);
/// Disarms every timer and drains the rings; idempotent.
void stop();
/// True while a session is running.
bool active() noexcept;

/// Merges every ring into the aggregate (cheap; callable any time).
void drain();

struct Totals {
  std::uint64_t samples = 0;    ///< drained into the aggregate
  std::uint64_t dropped = 0;    ///< lost to full rings
  std::uint64_t truncated = 0;  ///< stacks cut at kMaxDepth
};
Totals totals();

/// Number of currently registered threads (test hook).
std::size_t registered_threads();

/// Folded flamegraph lines of everything aggregated so far, sorted by
/// count descending: "tag:id;task:Kind;frameRoot;...;frameLeaf N\n".
/// Prefixed by '#' comment lines (hz, samples, dropped) that downstream
/// consumers ignore.
std::string folded_text();

/// Chrome trace-event JSON of the aggregate (one instant event per unique
/// stack on a synthetic "profiler" track, args carrying stack + count) --
/// mergeable with a Perfetto export of the same run by concatenating the
/// event arrays.
std::string perfetto_samples_json();

/// Continuous-mode bootstrap: when DNC_PROFILE_HZ is set, starts the
/// session, the background ring drainer and the at-exit folded dump (to
/// DNC_PROFILE, default "dnc_profile.folded"). Lazily called by the first
/// ThreadRegistration; safe to call repeatedly.
void ensure_continuous();

/// Stops any session, forgets aggregate/totals and re-reads the env. Only
/// for tests; callers must have quiesced registered threads first.
void reset_for_tests();

}  // namespace dnc::obs::profiler

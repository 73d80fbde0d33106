// Scheduling policy of the runtime.
//
// There is one: SchedPolicy::Steal, per-worker priority deques with
// topology-aware work stealing (runtime/scheduler.hpp). EXPERIMENTS.md
// ("Scheduler policy") records why it is the one kept. The enum and its
// name stay because traces, SolveReports, history records and bench
// metadata stamp the policy, and artifacts recorded while a "central"
// policy existed must still load and diff.
#pragma once

namespace dnc::rt {

enum class SchedPolicy {
  Steal,  ///< per-worker deques + work stealing
};

/// Stable lowercase name ("steal") for reports and artifacts.
constexpr const char* sched_policy_name(SchedPolicy) noexcept { return "steal"; }

/// Policy every Runtime uses.
constexpr SchedPolicy default_sched_policy() noexcept { return SchedPolicy::Steal; }

}  // namespace dnc::rt

#include "runtime/simulator.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"

namespace dnc::rt {

SimulationResult simulate_schedule(const Trace& trace, int workers,
                                   const MachineModel& model, SimPolicy policy) {
  DNC_REQUIRE(workers >= 1, "simulate_schedule: workers >= 1");
  const std::vector<TraceEvent>& events = trace.events;
  const std::size_t n = events.size();
  SimulationResult res;
  res.schedule.workers = workers;
  res.schedule.kind_names = trace.kind_names;
  res.schedule.kind_memory_bound = trace.kind_memory_bound;

  // Child subtasks (spawn_and_wait) are not replayed: a parent's window
  // already includes the children it fanned out, and children carry no
  // dependency edges.
  std::vector<double> dur(n, 0.0);
  std::vector<char> membound(n, 0);
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    if (e.is_child()) continue;
    ++replayed;
    dur[i] = std::max(0.0, e.t_end - e.t_start);
    res.total_work += dur[i];
    membound[i] = e.kind >= 0 && e.kind < static_cast<int>(trace.kind_memory_bound.size()) &&
                  trace.kind_memory_bound[e.kind] != 0;
  }
  if (replayed == 0) return res;

  // Adjacency over the edges whose endpoints are both in the trace.
  // Successor lists keep edge order, which is submission order for engine
  // traces, so FIFO ties break the way the engine submitted them.
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index.emplace(events[i].task_id, i);
  std::vector<int> npred(n, 0);
  std::vector<std::vector<std::size_t>> succ(n);
  for (const auto& [pred, next] : trace.edges) {
    const auto pi = index.find(pred);
    const auto si = index.find(next);
    if (pi == index.end() || si == index.end()) continue;
    succ[pi->second].push_back(si->second);
    ++npred[si->second];
  }

  // Critical path by longest path in Kahn order (loaded traces need not be
  // topologically sorted; a cycle just leaves its tasks out).
  {
    std::vector<double> dist(n, 0.0);
    std::vector<int> remaining(npred);
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < n; ++i)
      if (remaining[i] == 0) order.push_back(i);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      dist[i] += dur[i];
      res.critical_path = std::max(res.critical_path, dist[i]);
      for (std::size_t s : succ[i]) {
        dist[s] = std::max(dist[s], dist[i]);
        if (--remaining[s] == 0) order.push_back(s);
      }
    }
  }

  // Bandwidth model: when m memory-bound tasks run concurrently and the
  // machine can serve `streams` of them at full speed, each runs at
  // streams/m of nominal rate. We apply the factor at task start using the
  // instantaneous count -- a first-order model that reproduces the observed
  // stagnation of copy-dominated runs.
  const int total_streams =
      std::min(workers, model.sockets * model.bw_streams_per_socket);

  struct Running {
    double finish;
    std::size_t task;
    int worker;
  };
  struct Later {
    bool operator()(const Running& a, const Running& b) const { return a.finish > b.finish; }
  };
  std::priority_queue<Running, std::vector<Running>, Later> running;
  // Ready set: (priority desc, arrival seq asc), so SimPolicy::Priority is
  // FIFO within equal priority and degenerates to plain FIFO when every
  // priority is zero; SimPolicy::Fifo forces priority 0 for all entries.
  struct ReadyEntry {
    int prio;
    std::uint64_t seq;
    std::size_t task;
  };
  struct ReadyOrder {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.prio != b.prio) return a.prio < b.prio;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyOrder> ready;
  std::uint64_t ready_seq = 0;
  const auto push_ready = [&](std::size_t i) {
    const int prio = policy == SimPolicy::Priority ? events[i].priority : 0;
    ready.push({prio, ready_seq++, i});
  };
  std::vector<int> remaining(npred);
  for (std::size_t i = 0; i < n; ++i)
    if (remaining[i] == 0 && !events[i].is_child()) push_ready(i);

  std::vector<int> free_workers(workers);
  for (int w = 0; w < workers; ++w) free_workers[w] = workers - 1 - w;

  double clock = 0.0;
  int idle_workers = workers;
  int running_membound = 0;
  std::size_t completed = 0;
  while (completed < replayed) {
    // Launch as many ready tasks as there are idle workers.
    while (idle_workers > 0 && !ready.empty()) {
      const std::size_t t = ready.top().task;
      ready.pop();
      --idle_workers;
      double d = dur[t];
      if (membound[t]) {
        ++running_membound;
        const double factor =
            std::max(1.0, static_cast<double>(running_membound) / total_streams);
        d *= factor;
      }
      const int w = free_workers.back();
      free_workers.pop_back();
      running.push({clock + d, t, w});
      TraceEvent ev{events[t].task_id, events[t].kind, w, clock, clock + d};
      ev.priority = events[t].priority;
      res.schedule.events.push_back(ev);
    }
    DNC_REQUIRE(!running.empty(), "simulate_schedule: deadlock (cyclic edge set?)");
    const Running r = running.top();
    running.pop();
    clock = r.finish;
    ++idle_workers;
    free_workers.push_back(r.worker);
    if (membound[r.task]) --running_membound;
    ++completed;
    for (std::size_t s : succ[r.task]) {
      if (--remaining[s] == 0) push_ready(s);
    }
  }
  res.makespan = clock;
  res.efficiency = res.total_work / (res.makespan * workers);
  return res;
}

}  // namespace dnc::rt

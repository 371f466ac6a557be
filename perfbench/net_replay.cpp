#include "net_replay.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "coflow/coflow.h"
#include "fabric/fabric_factory.h"
#include "net/network.h"
#include "simcore/simulator.h"

namespace perfbench {

using namespace cosched;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// kFlowRouted records the size in GB (bytes / 1e9); rounding recovers the
/// byte count exactly for any size below 2^53 bytes.
DataSize routed_size(const TraceEvent& ev) {
  return DataSize::bytes(std::llround(ev.b * 1e9));
}

FlowPath routed_path(const TraceEvent& ev) {
  return static_cast<FlowPath>(ev.a);
}

/// The plan's outage window behind a kOcsOutage event: the trace stamps a
/// begin at `at` and an end at `at + dur`, with b = dur in both.
std::int32_t outage_plane(const TraceEvent& ev, const FaultPlan& plan) {
  for (const OcsOutageFault& o : plan.ocs_outages) {
    const SimTime stamp = ev.a == 1 ? o.at : o.at + o.dur;
    if (stamp == ev.at && o.dur.sec() == ev.b) return o.plane;
  }
  return -1;
}

}  // namespace

ReplayResult replay_eps(const std::vector<TraceEvent>& trace,
                        const HybridTopology& topo, const FabricSpec& spec) {
  ReplayResult result;
  const auto t0 = Clock::now();
  Simulator sim;
  Network net(sim, topo, make_fabric(sim, topo, spec));
  EpsFabric& eps = net.eps();
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Flow>> flows;
  std::int64_t completed = 0;
  const EpsFabric::CompletionCallback on_complete = [&completed](Flow&) {
    ++completed;
  };
  for (const TraceEvent& ev : trace) {
    DataSize size;
    FlowPath path = FlowPath::kEps;
    if (ev.kind == TraceEventKind::kFlowRouted) {
      path = routed_path(ev);
      if (path == FlowPath::kOcs) continue;
      if (path == FlowPath::kEps) ++result.flows;
      size = routed_size(ev);
    } else if (ev.kind == TraceEventKind::kFlowEvicted) {
      // The evicted remainder finishes on the EPS (b = bits still to send).
      size = DataSize::bytes(std::llround(ev.b / 8.0));
    } else {
      continue;
    }
    flows.push_back(std::make_unique<Flow>(
        ids.next(), CoflowId{ev.job.value()}, ev.job, ev.src, ev.dst, size));
    Flow* flow = flows.back().get();
    flow->set_path(path);
    sim.schedule_at(ev.at, [&eps, &on_complete, flow] {
      eps.start_flow(*flow, on_complete);
    });
  }
  sim.run();
  result.wall_s = seconds_since(t0);
  result.replans = eps.replans();
  result.bytes = eps.eps_bits() / 8.0;
  result.drained = completed == static_cast<std::int64_t>(flows.size());
  return result;
}

ReplayResult replay_fabric(const std::vector<TraceEvent>& trace,
                           const HybridTopology& topo, const FabricSpec& spec,
                           const FaultPlan& plan) {
  ReplayResult result;
  const auto t0 = Clock::now();
  Simulator sim;
  Network net(sim, topo, make_fabric(sim, topo, spec));
  Fabric& fabric = net.fabric();
  std::int64_t completed = 0;
  fabric.set_on_flow_complete([&completed](Flow&) { ++completed; });
  IdAllocator<FlowId> ids;
  std::unordered_map<JobId, std::unique_ptr<Coflow>> coflows;

  // Evicted flows finish on the EPS in the run; here they just leave.
  const auto leave_fabric = [&result, &sim](const std::vector<Flow*>& evicted) {
    result.evicted += static_cast<std::int64_t>(evicted.size());
    for (Flow* f : evicted) f->mark_completed(sim.now());
  };

  for (const TraceEvent& ev : trace) {
    if (ev.kind == TraceEventKind::kFlowRouted) {
      if (routed_path(ev) == FlowPath::kOcs) ++result.flows;
      // Every flow joins its coflow, in trace order and at its trace time,
      // so the circuit scheduler sees the coflow matrix the run showed it
      // (Sunflow orders coflows by their bound at first submit). Flows this
      // replay does not carry count as done at once.
      sim.schedule_at(ev.at, [&, ev] {
        auto& coflow = coflows[ev.job];
        if (!coflow) {
          coflow = std::make_unique<Coflow>(CoflowId{ev.job.value()}, ev.job);
        }
        auto [flow, created] =
            coflow->add_demand(ids, ev.src, ev.dst, routed_size(ev));
        if (!created) return;
        flow->set_path(routed_path(ev));
        if (flow->path() == FlowPath::kOcs) {
          fabric.submit(*coflow, *flow);
        } else {
          flow->mark_completed(sim.now());
        }
      });
    } else if (ev.kind == TraceEventKind::kOcsOutage) {
      const std::int32_t plane = outage_plane(ev, plan);
      const bool single_plane = plane >= 0 && plane < fabric.num_planes();
      const bool begin = ev.a == 1;
      sim.schedule_at(ev.at, [&, plane, single_plane, begin] {
        if (single_plane) {
          if (begin) {
            leave_fabric(fabric.begin_plane_outage(plane));
          } else {
            fabric.end_plane_outage(plane);
          }
        } else if (begin) {
          net.begin_ocs_outage();
          leave_fabric(fabric.evict_all());
        } else {
          net.end_ocs_outage();
        }
      });
    }
  }
  sim.run();
  result.wall_s = seconds_since(t0);
  result.bytes = fabric.bits_transferred() / 8.0;
  result.drained = completed + result.evicted == result.flows;
  return result;
}

}  // namespace perfbench

#include "fabric/baseline_fabrics.h"

#include <algorithm>
#include <sstream>

#include "coflow/traffic_matrix.h"
#include "common/check.h"

namespace cosched {

FifoFabric::FifoFabric(Simulator& sim, const HybridTopology& topo,
                       std::size_t num_queues)
    : Fabric(topo), sim_(sim), queues_(num_queues), active_(num_queues) {}

void FifoFabric::submit(Coflow& /*coflow*/, Flow& flow) {
  COSCHED_CHECK(flow.path() == FlowPath::kOcs);
  COSCHED_CHECK_MSG(flow.src() != flow.dst(),
                    "intra-rack flow routed to " << name());
  const std::size_t queue = queue_index(flow);
  queues_[queue].push_back(&flow);
  ++pending_count_;
  if (active_[queue].flow == nullptr) start_transfer(queue);
}

void FifoFabric::start_transfer(std::size_t queue) {
  Flow& flow = *queues_[queue].front();
  queues_[queue].pop_front();
  --pending_count_;
  Active& active = active_[queue];
  COSCHED_CHECK(active.flow == nullptr);
  active.flow = &flow;
  active.last_update = sim_.now();
  ++active_count_;
  flow.mark_started(sim_.now());
  flow.set_rate(rate_for(flow));
  schedule_completion(queue, flow);
}

void FifoFabric::schedule_completion(std::size_t queue, Flow& flow) {
  const Duration eta = Duration::seconds(flow.remaining_bits() /
                                         flow.rate().in_bits_per_sec());
  flow.completion_event() =
      sim_.schedule_after(eta, [this, queue] { on_transfer_complete(queue); });
}

void FifoFabric::settle_active(Active& active) {
  const double moved = active.flow->settle(sim_.now() - active.last_update);
  active.last_update = sim_.now();
  if (moved > 0.0) credit_drained_bits(moved);
}

void FifoFabric::on_transfer_complete(std::size_t queue) {
  Active& active = active_[queue];
  COSCHED_CHECK(active.flow != nullptr);
  Flow& flow = *active.flow;
  settle_active(active);
  flow.set_rate(Bandwidth::zero());
  active.flow = nullptr;
  --active_count_;
  flow.mark_completed(sim_.now());
  notify_flow_complete(flow);
  if (!queues_[queue].empty()) start_transfer(queue);
}

void FifoFabric::demand_added(Flow& flow) {
  const std::size_t queue = queue_index(flow);
  Active& active = active_[queue];
  if (active.flow != &flow) {
    return;  // queued; the grown size is picked up when service starts
  }
  settle_active(active);
  flow.completion_event().cancel();
  schedule_completion(queue, flow);
}

std::vector<Flow*> FifoFabric::evict_all() {
  std::vector<Flow*> evicted;
  evicted.reserve(active_count_ + pending_count_);
  // In-service transfers first, then queued flows, both in queue-index
  // order (FIFO within a queue) — deterministic by construction.
  for (auto& active : active_) {
    if (active.flow == nullptr) continue;
    Flow& flow = *active.flow;
    settle_active(active);
    flow.completion_event().cancel();
    flow.set_rate(Bandwidth::zero());
    active.flow = nullptr;
    --active_count_;
    evicted.push_back(&flow);
  }
  for (auto& queue : queues_) {
    for (Flow* f : queue) evicted.push_back(f);
    queue.clear();
  }
  pending_count_ = 0;
  return evicted;
}

DataSize FifoFabric::bytes_in_flight() const {
  double bits = 0.0;
  for (const auto& queue : queues_) {
    for (const Flow* f : queue) bits += f->remaining_bits();
  }
  for (const auto& active : active_) {
    if (active.flow != nullptr) bits += active.flow->remaining_bits();
  }
  return DataSize::bytes(static_cast<std::int64_t>(bits / 8.0));
}

std::string FifoFabric::self_check() const {
  std::size_t actives = 0;
  for (std::size_t q = 0; q < active_.size(); ++q) {
    const Active& active = active_[q];
    if (active.flow == nullptr) continue;
    ++actives;
    if (queue_index(*active.flow) != q) {
      std::ostringstream os;
      os << name() << " transfer " << active.flow->src() << " -> "
         << active.flow->dst() << " is in service on queue " << q
         << " but belongs to queue " << queue_index(*active.flow);
      return os.str();
    }
  }
  if (actives != active_count_) {
    std::ostringstream os;
    os << name() << " active-transfer count diverged: counter "
       << active_count_ << ", actual " << actives;
    return os.str();
  }
  std::size_t queued = 0;
  for (const auto& queue : queues_) queued += queue.size();
  if (queued != pending_count_) {
    std::ostringstream os;
    os << name() << " pending-flow count diverged: counter " << pending_count_
       << ", actual " << queued;
    return os.str();
  }
  return {};
}

MeshFabric::MeshFabric(Simulator& sim, const HybridTopology& topo)
    : FifoFabric(sim, topo,
                 static_cast<std::size_t>(topo.num_racks) *
                     static_cast<std::size_t>(topo.num_racks)) {}

RingFabric::RingFabric(Simulator& sim, const HybridTopology& topo)
    : FifoFabric(sim, topo, static_cast<std::size_t>(topo.num_racks)) {}

Duration MeshFabric::cct_lower_bound(const TrafficMatrix& matrix) const {
  Duration bound = Duration::zero();
  for (const auto& entry : matrix.entries()) {
    bound = std::max(bound, transfer_time(entry.second, link_rate()));
  }
  return bound;
}

Duration RingFabric::cct_lower_bound(const TrafficMatrix& matrix) const {
  const std::int32_t racks = topo_.num_racks;
  const auto in_topology = [racks](RackId r) {
    return r.value() >= 0 && r.value() < racks;
  };
  // Per source, accumulate hop-weighted egress busy time in Duration space
  // (the hop-weighted byte sum could overflow int64 on large matrices).
  // Entries are source-major, so each row's sum is one running total; it
  // only grows, so its maximum is the row's final sum.
  Duration bound = Duration::zero();
  Duration busy = Duration::zero();
  RackId row = RackId::invalid();
  for (const auto& [key, size] : matrix.entries()) {
    const auto [src, dst] = key;
    if (src != row) busy = Duration::zero();
    row = src;
    const std::int32_t h =
        in_topology(src) && in_topology(dst) && src != dst
            ? hops(src, dst)
            : 1;
    busy = busy + transfer_time(size, link_rate()) * static_cast<double>(h);
    bound = std::max(bound, busy);
  }
  return bound;
}

}  // namespace cosched

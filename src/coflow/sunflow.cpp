#include "coflow/sunflow.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "coflow/matching.h"
#include "common/check.h"
#include "common/log.h"
#include "net/ocs_switch.h"
#include "obs/observability.h"
#include "obs/perf_monitor.h"

namespace cosched {

SunflowScheduler::SunflowScheduler(Simulator& sim, Fabric& fabric)
    : sim_(sim), fabric_(fabric) {}

namespace {

bool pair_less(const Flow* a, const Flow* b) {
  return std::make_pair(a->src(), a->dst()) <
         std::make_pair(b->src(), b->dst());
}

/// Count one pending flow in or out of a per-rack tally, keeping `racks`
/// equal to the racks with a non-zero count. True when the rack's count
/// reached zero.
bool count_rack(std::vector<std::int32_t>& count, std::vector<RackId>& racks,
                RackId rack, std::int32_t delta) {
  const auto r = static_cast<std::size_t>(rack.value());
  if (count.size() <= r) count.resize(r + 1, 0);
  if (delta > 0 && count[r] == 0) racks.push_back(rack);
  count[r] += delta;
  if (delta > 0 || count[r] != 0) return false;
  racks.erase(std::find(racks.begin(), racks.end(), rack));
  return true;
}

}  // namespace

void SunflowScheduler::submit(Coflow& coflow, Flow& flow) {
  COSCHED_CHECK(flow.path() == FlowPath::kOcs);
  COSCHED_CHECK_MSG(flow.src() != flow.dst(),
                    "intra-rack flow routed to the circuit fabric");
  auto it = entries_.find(coflow.id());
  if (it == entries_.end()) {
    CoflowEntry entry;
    entry.id = coflow.id();
    entry.coflow = &coflow;
    entry.settled_at.assign(static_cast<std::size_t>(fabric_.num_planes()), 0);
    // Shortest-bound-first priority, frozen at first submit. The fabric's
    // own bound, not the single-circuit formula: on ocs:K the per-plane
    // formula inverted wide-vs-tall coflow ordering (K = 1 is the same
    // function, so the paper's ordering is pinned unchanged).
    entry.priority_sec =
        fabric_.cct_lower_bound(coflow.cross_rack_matrix()).sec();
    it = entries_.emplace(coflow.id(), std::move(entry)).first;
    // Keep `order_` sorted by (priority, id): stable, deterministic.
    const CoflowEntry& added = it->second;
    auto pos = std::find_if(order_.begin(), order_.end(),
                            [&](const CoflowEntry* e) {
                              return e->priority_sec > added.priority_sec ||
                                     (e->priority_sec == added.priority_sec &&
                                      e->id > added.id);
                            });
    order_.insert(pos, &it->second);
  }
  CoflowEntry& entry = it->second;
  // Appended unsorted: the next match's eligibility scan numbers racks in
  // this order, and that numbering picks among maximum matchings.
  entry.pending.push_back(&flow);
  count_rack(entry.src_count, entry.srcs, flow.src(), 1);
  count_rack(entry.dst_count, entry.dsts, flow.dst(), 1);
  std::fill(entry.settled_at.begin(), entry.settled_at.end(), 0);
  request_allocation_pass();
}

void SunflowScheduler::demand_added(Flow& flow) {
  auto it = active_.find(flow.id());
  if (it == active_.end()) {
    return;  // still pending; the grown size is picked up at circuit setup
  }
  ActiveTransfer& at = it->second;
  if (at.state == TransferState::kReconfiguring) {
    return;  // size grows before the transfer begins; nothing to re-plan
  }
  // Settle what has drained so far, then re-plan the completion event. The
  // settled bits are credited when the transfer ends (completion credits
  // the whole flow; eviction credits the transfer), so track them both per
  // transfer and in the scheduler-wide uncredited counter the auditor uses.
  const double moved = flow.settle(sim_.now() - at.last_update);
  at.settled_bits += moved;
  uncredited_settled_bits_ += moved;
  at.last_update = sim_.now();
  flow.completion_event().cancel();
  const Duration eta = Duration::seconds(
      flow.remaining_bits() / fabric_.link_rate().in_bits_per_sec());
  FlowId id = flow.id();
  flow.completion_event() =
      sim_.schedule_after(eta, [this, id] { on_transfer_complete(id); });
}

std::size_t SunflowScheduler::pending_flows() const {
  std::size_t n = 0;
  for (const auto& [id, entry] : entries_) n += entry.pending.size();
  return n;
}

DataSize SunflowScheduler::bytes_in_flight() const {
  double bits = 0.0;
  for (const auto& [id, entry] : entries_) {
    for (const Flow* f : entry.pending) bits += f->remaining_bits();
  }
  for (const auto& [id, at] : active_) bits += at.flow->remaining_bits();
  return DataSize::bytes(static_cast<std::int64_t>(bits / 8.0));
}

void SunflowScheduler::evict_transfer(ActiveTransfer& at) {
  Flow& flow = *at.flow;
  if (at.state == TransferState::kTransferring) {
    // Credit everything this transfer drained: the final settle plus any
    // bits settled earlier at demand_added points (previously lost).
    const double moved =
        flow.settle(sim_.now() - at.last_update) + at.settled_bits;
    uncredited_settled_bits_ -= at.settled_bits;
    if (moved > 0.0) fabric_.credit_drained_bits(moved);
    flow.completion_event().cancel();
    flow.set_rate(Bandwidth::zero());
  }
  // Tears down a connected circuit, or cancels one mid-reconfiguration:
  // the teardown's generation bump invalidates the pending setup
  // completion, so start_transfer never fires for this flow.
  release_circuit(at.plane, flow);
}

void SunflowScheduler::release_circuit(std::int32_t plane, const Flow& flow) {
  fabric_.plane(plane)->teardown_circuit(flow.src(), flow.dst());
  const auto racks = static_cast<std::size_t>(fabric_.topology().num_racks);
  const std::size_t base = static_cast<std::size_t>(plane) * racks;
  ++tick_;
  out_freed_[base + static_cast<std::size_t>(flow.src().value())] = tick_;
  in_freed_[base + static_cast<std::size_t>(flow.dst().value())] = tick_;
}

std::vector<Flow*> SunflowScheduler::evict_all() {
  std::vector<Flow*> evicted;
  evicted.reserve(active_.size() + pending_flows());
  for (auto& [id, at] : active_) {
    evict_transfer(at);
    evicted.push_back(at.flow);
  }
  active_.clear();
  for (const CoflowEntry* entry : order_) {
    for (Flow* f : entry->pending) evicted.push_back(f);
  }
  entries_.clear();
  order_.clear();
  return evicted;
}

std::vector<Flow*> SunflowScheduler::evict_plane(std::int32_t plane) {
  std::vector<Flow*> evicted;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.plane != plane) {
      ++it;
      continue;
    }
    evict_transfer(it->second);
    evicted.push_back(it->second.flow);
    it = active_.erase(it);
  }
  // Drop coflow entries left with nothing queued and nothing in flight, so
  // order_ does not accumulate husks across repeated plane outages. (A
  // coflow that later reopens demand is resubmitted like any new coflow.)
  for (auto eit = entries_.begin(); eit != entries_.end();) {
    bool live = !eit->second.pending.empty();
    for (auto ait = active_.begin(); !live && ait != active_.end(); ++ait) {
      live = ait->second.flow->coflow() == eit->first;
    }
    if (live) {
      ++eit;
      continue;
    }
    std::erase(order_, &eit->second);
    eit = entries_.erase(eit);
  }
  return evicted;
}

void SunflowScheduler::retire_coflow(CoflowId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  COSCHED_CHECK_MSG(it->second.pending.empty(),
                    "coflow " << id << " retired with queued flows");
  std::erase(order_, &it->second);
  entries_.erase(it);
}

void SunflowScheduler::request_allocation_pass() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  sim_.schedule_after(Duration::zero(), [this] {
    pass_scheduled_ = false;
    allocation_pass();
  });
}

void SunflowScheduler::allocation_pass() {
  PerfScope perf(PerfPhase::kSunflowAlloc);
  if (perf.active()) perf.set_size(pending_flows());
  // Ports that a higher-priority coflow still needs (pending demand it
  // could not start this pass) are *reserved*: a lower-priority coflow may
  // not take them even if they are momentarily free. Without this, a long
  // low-priority transfer can slip onto a port during the few milliseconds
  // the head coflow spends waiting for its matching port to reconfigure,
  // inverting Sunflow's shortest-coflow-first order. Reservations span all
  // planes (see the header comment).
  const auto num_racks = static_cast<std::size_t>(fabric_.topology().num_racks);
  const std::int32_t planes = fabric_.num_planes();
  if (reserved_out_.size() < num_racks) {
    reserved_out_.resize(num_racks, 0);
    reserved_in_.resize(num_racks, 0);
    src_seen_.resize(num_racks, 0);
    dst_seen_.resize(num_racks, 0);
    src_slot_.resize(num_racks, 0);
    dst_slot_.resize(num_racks, 0);
    out_lifted_.resize(num_racks, 0);
    in_lifted_.resize(num_racks, 0);
    out_freed_.resize(num_racks * static_cast<std::size_t>(planes), 0);
    in_freed_.resize(num_racks * static_cast<std::size_t>(planes), 0);
  }
  std::fill(reserved_out_.begin(), reserved_out_.end(), 0);
  std::fill(reserved_in_.begin(), reserved_in_.end(), 0);
  for (CoflowEntry* entry : order_) {
    if (entry->pending.empty()) continue;
    // Try every available plane in plane order. On a single-plane fabric
    // this loop body runs once — the pre-seam code sequence, bit for bit.
    for (std::int32_t p = 0; p < planes && !entry->pending.empty(); ++p) {
      if (!fabric_.plane_available(p)) continue;
      const OcsSwitch& sw = *fabric_.plane(p);
      if (may_match(*entry, p, sw)) {
        match_on_plane(*entry, p);
      } else if (self_audit_ && has_eligible_edge(*entry, sw)) {
        std::ostringstream os;
        os << "coflow " << entry->id << " skipped on plane " << p
           << " with an eligible edge";
        note_audit_fault(os.str());
      }
      // Either way no eligible edge is left: a maximum matching leaves
      // none unblocked, and a skip proves there was none.
      entry->settled_at[static_cast<std::size_t>(p)] = tick_;
    }
    // Whatever this coflow could not start keeps its ports reserved
    // against lower-priority coflows.
    for (RackId r : entry->srcs) {
      reserved_out_[static_cast<std::size_t>(r.value())] = 1;
    }
    for (RackId r : entry->dsts) {
      reserved_in_[static_cast<std::size_t>(r.value())] = 1;
    }
  }
  if (self_audit_) audit_entries();
}

bool SunflowScheduler::may_match(const CoflowEntry& entry, std::int32_t plane,
                                 const OcsSwitch& sw) const {
  // An edge is eligible when both its ports are free on the plane and
  // unreserved. Since the coflow was last settled on the plane, one of
  // them must also have freed or been unreserved (its pending set has not
  // grown, or settled_at would be 0). Checked per rack, not per flow.
  const std::uint64_t since = entry.settled_at[static_cast<std::size_t>(plane)];
  const std::size_t base =
      static_cast<std::size_t>(plane) * reserved_out_.size();
  bool src_open = false;
  bool changed = since == 0;
  for (RackId r : entry.srcs) {
    const auto i = static_cast<std::size_t>(r.value());
    if (reserved_out_[i] != 0 || !sw.out_port_free(r)) continue;
    src_open = true;
    if (changed) break;
    if (out_freed_[base + i] > since || out_lifted_[i] > since) {
      changed = true;
      break;
    }
  }
  if (!src_open) return false;
  bool dst_open = false;
  for (RackId r : entry.dsts) {
    const auto i = static_cast<std::size_t>(r.value());
    if (reserved_in_[i] != 0 || !sw.in_port_free(r)) continue;
    dst_open = true;
    if (changed) break;
    if (in_freed_[base + i] > since || in_lifted_[i] > since) {
      changed = true;
      break;
    }
  }
  return dst_open && changed;
}

bool SunflowScheduler::has_eligible_edge(const CoflowEntry& entry,
                                         const OcsSwitch& sw) const {
  for (const Flow* f : entry.pending) {
    if (sw.out_port_free(f->src()) && sw.in_port_free(f->dst()) &&
        reserved_out_[static_cast<std::size_t>(f->src().value())] == 0 &&
        reserved_in_[static_cast<std::size_t>(f->dst().value())] == 0) {
      return true;
    }
  }
  return false;
}

void SunflowScheduler::note_unpended(CoflowEntry& entry, const Flow& flow) {
  if (count_rack(entry.src_count, entry.srcs, flow.src(), -1)) {
    out_lifted_[static_cast<std::size_t>(flow.src().value())] = ++tick_;
  }
  if (count_rack(entry.dst_count, entry.dsts, flow.dst(), -1)) {
    in_lifted_[static_cast<std::size_t>(flow.dst().value())] = ++tick_;
  }
}

void SunflowScheduler::match_on_plane(CoflowEntry& entry,
                                      std::int32_t plane_index) {
  OcsSwitch& plane = *fabric_.plane(plane_index);
  // Give this coflow as many circuits as its pending flows can use on the
  // plane's currently-free ports: a maximum bipartite matching between free
  // source output ports and free destination input ports. This is what
  // lets an all-to-all shuffle use rotations of simultaneous circuits
  // instead of serializing (Goal-2 / Figure 2 of the paper). srcs_/dsts_
  // collect eligible racks in first-seen pending order, exactly as the
  // former std::map emplace did.
  ++scratch_gen_;
  srcs_.clear();
  dsts_.clear();
  for (Flow* f : entry.pending) {
    const auto s = static_cast<std::size_t>(f->src().value());
    const auto d = static_cast<std::size_t>(f->dst().value());
    if (!plane.out_port_free(f->src()) || !plane.in_port_free(f->dst()) ||
        reserved_out_[s] != 0 || reserved_in_[d] != 0) {
      continue;
    }
    if (src_seen_[s] != scratch_gen_) {
      src_seen_[s] = scratch_gen_;
      src_slot_[s] = srcs_.size();
      srcs_.push_back(f->src());
    }
    if (dst_seen_[d] != scratch_gen_) {
      dst_seen_[d] = scratch_gen_;
      dst_slot_[d] = dsts_.size();
      dsts_.push_back(f->dst());
    }
  }
  if (srcs_.empty() || dsts_.empty()) return;

  // Flows are aggregated per rack pair within a coflow, so at most one
  // pending flow exists per (src, dst) edge.
  if (adj_.size() < srcs_.size()) adj_.resize(srcs_.size());
  for (std::size_t i = 0; i < srcs_.size(); ++i) adj_[i].clear();
  BipartiteGraph graph(srcs_.size(), dsts_.size());
  // Deterministic edge order: pending by (src, dst). Only the tail
  // appended since the last sort is unsorted; keys are unique, so sorting
  // it and merging gives the same list a full sort would.
  std::vector<Flow*>& pending = entry.pending;
  if (entry.sorted < pending.size()) {
    const auto mid = pending.begin() + static_cast<std::ptrdiff_t>(entry.sorted);
    std::sort(mid, pending.end(), pair_less);
    std::inplace_merge(pending.begin(), mid, pending.end(), pair_less);
    entry.sorted = pending.size();
  }
  for (std::size_t k = 0; k < pending.size(); ++k) {
    const Flow* f = pending[k];
    const auto s = static_cast<std::size_t>(f->src().value());
    const auto d = static_cast<std::size_t>(f->dst().value());
    if (src_seen_[s] != scratch_gen_ || dst_seen_[d] != scratch_gen_) {
      continue;
    }
    graph.add_edge(src_slot_[s], dst_slot_[d]);
    adj_[src_slot_[s]].emplace_back(dst_slot_[d], k);
  }
  const MatchingResult match = maximum_bipartite_matching(graph);

  for (std::size_t i = 0; i < srcs_.size(); ++i) {
    const std::size_t j = match.match_left[i];
    if (j == MatchingResult::kUnmatched) continue;
    std::size_t k = pending.size();
    for (const auto& [dj, fk] : adj_[i]) {
      if (dj == j) k = fk;  // last match mirrors the former map overwrite
    }
    COSCHED_CHECK(k < pending.size());
    Flow* flow = pending[k];
    pending[k] = nullptr;  // compacted below, in one pass
    note_unpended(entry, *flow);
    active_.emplace(flow->id(),
                    ActiveTransfer{flow, TransferState::kReconfiguring,
                                   sim_.now(), 0.0, plane_index});
    if (obs_ != nullptr) {
      obs_->decisions.record(CircuitDecision{
          .at = sim_.now(),
          .coflow = entry.id,
          .job = flow->job(),
          .flow = flow->id(),
          .src = flow->src(),
          .dst = flow->dst(),
          .priority_sec = entry.priority_sec,
          .bytes = flow->size()});
    }
    FlowId id = flow->id();
    plane.setup_circuit(flow->src(), flow->dst(),
                        [this, id] { start_transfer(id); });
  }
  std::erase(pending, nullptr);
  entry.sorted = pending.size();
}

void SunflowScheduler::start_transfer(FlowId id) {
  auto it = active_.find(id);
  COSCHED_CHECK(it != active_.end());
  ActiveTransfer& at = it->second;
  Flow& flow = *at.flow;
  at.state = TransferState::kTransferring;
  at.last_update = sim_.now();
  flow.mark_started(sim_.now());
  flow.set_rate(fabric_.link_rate());
  const Duration eta = Duration::seconds(
      flow.remaining_bits() / fabric_.link_rate().in_bits_per_sec());
  flow.completion_event() =
      sim_.schedule_after(eta, [this, id] { on_transfer_complete(id); });
}

void SunflowScheduler::on_transfer_complete(FlowId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Flow& flow = *it->second.flow;
  release_circuit(it->second.plane, flow);
  // Credit only what this flow has not been credited before: a flow whose
  // demand reopened after an earlier circuit completion carries its first
  // transfer in size(), and crediting the full size again would double-
  // count it. Integer DataSize arithmetic, so the common single-completion
  // case credits exactly size() as before.
  fabric_.credit_bytes(flow.size() - flow.circuit_credited());
  flow.set_circuit_credited(flow.size());
  uncredited_settled_bits_ -= it->second.settled_bits;
  flow.mark_completed(sim_.now());
  active_.erase(it);

  // Drop empty coflow entries so `order_` stays short.
  auto eit = entries_.find(flow.coflow());
  if (eit != entries_.end() && eit->second.pending.empty() &&
      eit->second.coflow->all_flows_complete()) {
    std::erase(order_, &eit->second);
    entries_.erase(eit);
  }

  notify_flow_complete(flow);
  request_allocation_pass();
}

void SunflowScheduler::audit_entries() {
  for (const CoflowEntry* entry : order_) {
    const std::vector<Flow*>& pending = entry->pending;
    std::ostringstream os;
    os << "coflow " << entry->id << ": ";
    if (entry->sorted > pending.size() ||
        !std::is_sorted(pending.begin(),
                        pending.begin() +
                            static_cast<std::ptrdiff_t>(entry->sorted),
                        pair_less)) {
      os << "pending prefix of " << entry->sorted << " is not sorted";
      note_audit_fault(os.str());
      return;
    }
    std::vector<Flow*> keys = pending;
    std::sort(keys.begin(), keys.end(), pair_less);
    const auto dup = std::adjacent_find(
        keys.begin(), keys.end(), [](const Flow* a, const Flow* b) {
          return !pair_less(a, b) && !pair_less(b, a);
        });
    if (dup != keys.end()) {
      os << "rack pair " << (*dup)->src() << "->" << (*dup)->dst()
         << " is pending twice";
      note_audit_fault(os.str());
      return;
    }
    std::vector<std::int32_t> srcs(entry->src_count.size(), 0);
    std::vector<std::int32_t> dsts(entry->dst_count.size(), 0);
    bool fits = true;
    for (const Flow* f : pending) {
      const auto s = static_cast<std::size_t>(f->src().value());
      const auto d = static_cast<std::size_t>(f->dst().value());
      if (s >= srcs.size() || d >= dsts.size()) {
        fits = false;
        break;
      }
      ++srcs[s];
      ++dsts[d];
    }
    const auto listed = [](const std::vector<std::int32_t>& count) {
      return static_cast<std::size_t>(
          std::count_if(count.begin(), count.end(),
                        [](std::int32_t n) { return n != 0; }));
    };
    if (!fits || srcs != entry->src_count || dsts != entry->dst_count ||
        listed(srcs) != entry->srcs.size() ||
        listed(dsts) != entry->dsts.size()) {
      os << "per-rack pending counts diverge from a recount";
      note_audit_fault(os.str());
      return;
    }
  }
}

std::string SunflowScheduler::self_check() const {
  if (!audit_fault_.empty()) return audit_fault_;
  std::int64_t transferring = 0;
  std::int64_t reconfiguring = 0;
  for (const auto& [id, at] : active_) {
    if (!fabric_.plane_available(at.plane)) {
      std::ostringstream os;
      os << "flow " << id << " holds a circuit on plane " << at.plane
         << " which is inside an outage window";
      return os.str();
    }
    if (at.state == TransferState::kTransferring) {
      ++transferring;
    } else {
      ++reconfiguring;
    }
  }
  std::int64_t connected_ports = 0;
  std::int64_t reconfiguring_ports = 0;
  for (std::int32_t p = 0; p < fabric_.num_planes(); ++p) {
    connected_ports += fabric_.plane(p)->active_circuits();
    reconfiguring_ports += fabric_.plane(p)->reconfiguring_ports();
  }
  if (connected_ports != transferring || reconfiguring_ports != reconfiguring) {
    std::ostringstream os;
    os << "plane port states diverge from transfers: " << connected_ports
       << " connected ports vs " << transferring << " transferring flows, "
       << reconfiguring_ports << " reconfiguring ports vs " << reconfiguring
       << " reconfiguring flows";
    return os.str();
  }
  return {};
}

}  // namespace cosched

// Sunflow [18]: shortest-coflow-first, non-preemptive circuit scheduling.
//
// Coflows are prioritized by their CCT lower bound T(C), computed when the
// coflow is first submitted (smaller bound = higher priority). An
// allocation pass walks coflows in priority order and, for every pending
// flow whose source output port and destination input port are both free
// on some plane, sets up a circuit. A circuit is held non-preemptively
// until its flow drains; reconfiguration stalls only the two ports
// involved (not-all-stop). Lower-priority coflows may use ports the
// higher-priority coflows leave idle (work conservation).
//
// The scheduler allocates across the planes of a Fabric (src/net/fabric.h).
// On a single-plane fabric — the paper's OCS — the per-plane loop runs its
// body exactly once, executing the pre-seam code sequence bit for bit. On
// ocs:K it matches each coflow against every available plane in plane
// order, so one rack pair can carry up to K simultaneous circuits (one per
// plane) from different coflows. Port reservations (a higher-priority
// coflow's unmet demand) are plane-wide: the head coflow wants *a* circuit
// for that pair, and holding the pair on all planes is what keeps
// shortest-coflow-first strict.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "coflow/circuit_scheduler.h"
#include "net/fabric.h"
#include "simcore/simulator.h"

namespace cosched {

struct Observability;

class SunflowScheduler : public CircuitScheduler {
 public:
  SunflowScheduler(Simulator& sim, Fabric& fabric);

  void submit(Coflow& coflow, Flow& flow) override;
  void demand_added(Flow& flow) override;
  [[nodiscard]] std::size_t pending_flows() const override;

  /// Transfers currently holding a circuit (diagnostics).
  [[nodiscard]] std::size_t active_transfers() const {
    return active_.size();
  }

  /// Coflows with pending or active circuit demand (diagnostics).
  [[nodiscard]] std::size_t active_coflows() const { return entries_.size(); }

  /// Bytes still to drain across pending and circuit-held flows.
  [[nodiscard]] DataSize bytes_in_flight() const;

  /// Fault injection (fabric outage): abort every queued and in-flight
  /// circuit transfer. Mid-circuit flows are settled first — the bits they
  /// already drained are credited to the fabric's accounting — and their
  /// circuits torn down (including circuits still reconfiguring). The
  /// returned flows are incomplete and unrouted as far as this scheduler is
  /// concerned; the caller re-routes them (onto the EPS). Deterministic
  /// order: circuit holders by flow id, then queued flows by coflow
  /// priority.
  [[nodiscard]] std::vector<Flow*> evict_all();

  /// Plane-scoped outage: abort only the transfers holding circuits on
  /// `plane` (flow-id order). Queued flows stay queued — the remaining
  /// planes can still serve them.
  [[nodiscard]] std::vector<Flow*> evict_plane(std::int32_t plane);

  /// The coflow's job finished and is about to be freed: drop its entry.
  /// Every flow of the coflow has completed, so only a *husk* can be left —
  /// an entry whose last circuit transfer finished while a flow of the
  /// same coflow was still on the EPS. Husks are kept until now because
  /// a container-kill re-fetch can reopen the coflow, and the reopened
  /// flows must rejoin it at its original priority.
  void retire_coflow(CoflowId id);

  /// Re-run the allocation pass (a downed plane came back).
  void kick() { request_allocation_pass(); }

  /// Attach tracing + decision logging; null (the default) disables both.
  void set_observability(Observability* obs) { obs_ = obs; }

  /// Bits settled out of in-flight transfers (mid-transfer demand growth)
  /// but not yet credited to the fabric's accounting — completion credits
  /// whole flows, so settled bits stay uncredited until the flow completes
  /// or is evicted. The invariant auditor adds this term to its
  /// conservation identity; zero whenever no transfer is mid-flight.
  [[nodiscard]] double uncredited_settled_bits() const {
    return uncredited_settled_bits_;
  }

  /// Internal coherence, re-derived from first principles: every active
  /// transfer sits on an available plane, and the planes' port states sum
  /// to exactly the transfers in each state (connected ports ==
  /// transferring flows, reconfiguring out-ports == reconfiguring flows).
  /// With set_self_audit on, also the first fault the passes found in their
  /// own incremental state (see there). Empty string = coherent. Only
  /// meaningful while this scheduler is the sole driver of the fabric's
  /// planes (the simulation driver's setup).
  [[nodiscard]] std::string self_check() const;

  /// Audited runs: every pass re-derives what it skipped. Each (coflow,
  /// plane) a pass skips must have no eligible edge under a from-scratch
  /// scan, and after the pass every coflow's sorted prefix must be
  /// (src, dst)-sorted, its pending keys unique and its per-rack counts
  /// equal to a recount. Read-only: results are unchanged.
  void set_self_audit(bool on) { self_audit_ = on; }

 private:
  enum class TransferState { kReconfiguring, kTransferring };

  struct ActiveTransfer {
    Flow* flow;
    TransferState state = TransferState::kReconfiguring;
    SimTime last_update = SimTime::zero();
    /// Bits settled during this transfer before its completion/eviction
    /// (demand_added settle points). Needed so eviction can credit the
    /// whole transfer, not just the span since the last settle.
    double settled_bits = 0.0;
    /// Which fabric plane holds this transfer's circuit.
    std::int32_t plane = 0;
  };

  struct CoflowEntry {
    CoflowId id;
    Coflow* coflow;
    double priority_sec;  // T(C) at first submit; smaller = higher priority
    /// In submit order, except that pending[0, sorted) is (src, dst)-sorted:
    /// the list as of its last sort, less the flows matched since.
    std::vector<Flow*> pending;
    std::size_t sorted = 0;
    /// Pending flows per source / destination rack, and the racks whose
    /// count is non-zero (in no particular order).
    std::vector<std::int32_t> src_count;
    std::vector<std::int32_t> dst_count;
    std::vector<RackId> srcs;
    std::vector<RackId> dsts;
    /// Per plane, the tick_ at which the coflow was last shown to have no
    /// eligible edge on that plane; 0 = never, or pending grew since.
    std::vector<std::uint64_t> settled_at;
  };

  void request_allocation_pass();
  void allocation_pass();
  /// Whether `entry` can have an eligible edge on `plane` given the
  /// current ports and reservations; false proves it has none (the exact
  /// skip rule of DESIGN.md §4).
  [[nodiscard]] bool may_match(const CoflowEntry& entry, std::int32_t plane,
                               const OcsSwitch& sw) const;
  /// From-scratch eligibility scan (self-audit only).
  [[nodiscard]] bool has_eligible_edge(const CoflowEntry& entry,
                                       const OcsSwitch& sw) const;
  /// One coflow x one plane: match the coflow's pending flows against the
  /// plane's free ports and start the matched transfers.
  void match_on_plane(CoflowEntry& entry, std::int32_t plane);
  /// A matched flow left `entry.pending` (its slot is nulled by the
  /// caller): count it out, and stamp the racks the coflow no longer
  /// reserves.
  void note_unpended(CoflowEntry& entry, const Flow& flow);
  /// Tear down the circuit `flow` holds on `plane` and stamp its ports.
  void release_circuit(std::int32_t plane, const Flow& flow);
  void start_transfer(FlowId id);
  void on_transfer_complete(FlowId id);
  /// Shared eviction body: settle, credit, tear down, and collect one
  /// active transfer (the map entry is erased by the caller).
  void evict_transfer(ActiveTransfer& at);
  /// Self-audit after a pass: sortedness, uniqueness and counts.
  void audit_entries();
  void note_audit_fault(std::string what) {
    if (audit_fault_.empty()) audit_fault_ = std::move(what);
  }

  Simulator& sim_;
  Fabric& fabric_;
  std::map<CoflowId, CoflowEntry> entries_;
  /// Entries in priority order (priority, id) — deterministic. std::map
  /// nodes never move, so the pointers stay valid until erased.
  std::vector<CoflowEntry*> order_;
  std::map<FlowId, ActiveTransfer> active_;
  double uncredited_settled_bits_ = 0.0;
  bool pass_scheduled_ = false;
  Observability* obs_ = nullptr;
  bool self_audit_ = false;
  std::string audit_fault_;

  // ----- change stamps ------------------------------------------------------
  // A coflow whose last match left no eligible edge on a plane can only
  // gain one when a port it touches frees on that plane, a reservation on
  // one of its racks lifts, or its pending set grows (DESIGN.md §4).
  // tick_ orders those events; the per-port arrays hold the tick of each
  // port's latest one.
  std::uint64_t tick_ = 1;
  /// [plane * racks + rack]: tick of the port's last teardown.
  std::vector<std::uint64_t> out_freed_;
  std::vector<std::uint64_t> in_freed_;
  /// [rack]: tick at which some coflow stopped reserving the port.
  std::vector<std::uint64_t> out_lifted_;
  std::vector<std::uint64_t> in_lifted_;

  // ----- allocation-pass scratch (flat, reused across passes) -------------
  // The pass runs millions of times at 100k-job scale and node-based
  // set/map scratch dominated its cost; these per-rack arrays replace them
  // with identical iteration order (first-seen rack order, same edge
  // order), so the matching — and therefore the simulation — is
  // bit-identical. Generation stamps avoid clearing per coflow; contents
  // are meaningless between passes and carry no scheduling state.
  std::vector<char> reserved_out_;
  std::vector<char> reserved_in_;
  std::vector<std::uint64_t> src_seen_;
  std::vector<std::uint64_t> dst_seen_;
  std::vector<std::size_t> src_slot_;
  std::vector<std::size_t> dst_slot_;
  std::uint64_t scratch_gen_ = 0;
  std::vector<RackId> srcs_;
  std::vector<RackId> dsts_;
  /// srcs_ index -> (dsts_ index, index into pending) edges, grouped by
  /// construction.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj_;
};

}  // namespace cosched

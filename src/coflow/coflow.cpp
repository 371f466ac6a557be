#include "coflow/coflow.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace cosched {

std::pair<Flow*, bool> Coflow::add_demand(IdAllocator<FlowId>& ids, RackId src,
                                          RackId dst, DataSize size) {
  COSCHED_CHECK(size >= DataSize::zero());
  auto it = by_pair_.find({src, dst});
  if (it != by_pair_.end()) {
    it->second->add_demand(size);
    return {it->second, false};
  }
  flows_.push_back(
      std::make_unique<Flow>(ids.next(), id_, job_, src, dst, size));
  Flow* flow = flows_.back().get();
  flow->set_tally(&open_);
  by_pair_[{src, dst}] = flow;
  return {flow, true};
}

Flow* Coflow::find_flow(RackId src, RackId dst) {
  auto it = by_pair_.find({src, dst});
  return it == by_pair_.end() ? nullptr : it->second;
}

TrafficMatrix Coflow::cross_rack_matrix() const {
  // by_pair_ is (src, dst)-ordered, so every add appends.
  TrafficMatrix m;
  for (const auto& [pair, flow] : by_pair_) {
    if (pair.first != pair.second) m.add(pair.first, pair.second, flow->size());
  }
  return m;
}

std::string Coflow::audit_open_flows() const {
  OpenFlowTally recount;
  for (const auto& f : flows_) {
    if (!f->completed()) recount.add(f->dst(), 1);
  }
  const std::size_t racks = std::max(recount.by_dst.size(), open_.by_dst.size());
  for (std::size_t d = 0; d < racks; ++d) {
    const RackId dst{static_cast<RackId::value_type>(d)};
    if (recount.to(dst) != open_.to(dst)) {
      std::ostringstream os;
      os << "coflow " << id_ << " tallies " << open_.to(dst)
         << " open flows into rack " << d << " but " << recount.to(dst)
         << " are incomplete";
      return os.str();
    }
  }
  return {};  // the totals are sums of the per-rack counts
}

DataSize Coflow::total_demand() const {
  DataSize t = DataSize::zero();
  for (const auto& f : flows_) t += f->size();
  return t;
}

}  // namespace cosched

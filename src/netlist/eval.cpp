#include "netlist/eval.hpp"

#include <stdexcept>

namespace sbst::netlist {

Evaluator::Evaluator(const Netlist& nl)
    : nl_(&nl),
      values_(nl.size(), 0),
      inputs_(nl.size(), 0),
      state_(nl.size(), 0),
      force0_(nl.size(), 0),
      force1_(nl.size(), 0) {
  nl.topo_order();  // validate acyclicity up front
}

void Evaluator::set_bus(const Bus& bus, std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    set_input(bus[i], (value >> i) & 1u);
  }
}

// Inputs are read from the pristine store so that fault forcing on an input
// net (which rewrites values_) cannot leak into later evaluations.

std::uint64_t Evaluator::bus_value(const Bus& bus, unsigned lane) const {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    out |= ((values_[bus[i]] >> lane) & 1u) << i;
  }
  return out;
}

void Evaluator::inject(const Site& site, bool stuck_value,
                       std::uint64_t lane_mask) {
  has_faults_ = true;
  if (site.is_output()) {
    if ((force0_[site.gate] | force1_[site.gate]) == 0) {
      touched_forces_.push_back(site.gate);
    }
    (stuck_value ? force1_ : force0_)[site.gate] |= lane_mask;
  } else {
    PinForce& pf = pin_forces_[std::uint64_t{site.gate} * 4 + site.pin];
    (stuck_value ? pf.f1 : pf.f0) |= lane_mask;
  }
}

void Evaluator::release(const Site& site, std::uint64_t lane_mask) {
  if (!has_faults_) return;
  if (site.is_output()) {
    // The net stays on touched_forces_ (a zero force is identity, and
    // clear_faults() zeroing it again is harmless), so a later re-inject
    // pushing a duplicate entry costs nothing.
    force0_[site.gate] &= ~lane_mask;
    force1_[site.gate] &= ~lane_mask;
  } else {
    auto it = pin_forces_.find(std::uint64_t{site.gate} * 4 + site.pin);
    if (it != pin_forces_.end()) {
      it->second.f0 &= ~lane_mask;
      it->second.f1 &= ~lane_mask;
    }
  }
}

void Evaluator::clear_faults() {
  if (!has_faults_) return;
  // Only the injected sites carry nonzero masks; reverting just those makes
  // teardown O(faults in the batch) instead of O(nets) — this runs once per
  // fault in the inner loops of all three reference simulators.
  for (NetId id : touched_forces_) force0_[id] = force1_[id] = 0;
  touched_forces_.clear();
  pin_forces_.clear();
  has_faults_ = false;
}

std::uint64_t Evaluator::fetch(NetId gate, unsigned pin) const {
  std::uint64_t v = values_[nl_->gate(gate).in[pin]];
  // Good-machine passes skip the hash probe entirely: without has_faults_
  // the map is guaranteed empty-of-effect even if its buckets are warm from
  // a previous batch.
  if (has_faults_ && !pin_forces_.empty()) {
    auto it = pin_forces_.find(std::uint64_t{gate} * 4 + pin);
    if (it != pin_forces_.end()) {
      v |= it->second.f1;
      v &= ~it->second.f0;
    }
  }
  return v;
}

inline std::uint64_t Evaluator::compute(NetId id) const {
  const Gate& g = nl_->gate(id);
  switch (g.kind) {
    case GateKind::kInput:
      return inputs_[id];
    case GateKind::kConst0:
      return 0;
    case GateKind::kConst1:
      return ~std::uint64_t{0};
    case GateKind::kDff:
      return state_[id];
    case GateKind::kBuf:
      return fetch(id, 0);
    case GateKind::kNot:
      return ~fetch(id, 0);
    case GateKind::kAnd:
      return fetch(id, 0) & fetch(id, 1);
    case GateKind::kOr:
      return fetch(id, 0) | fetch(id, 1);
    case GateKind::kNand:
      return ~(fetch(id, 0) & fetch(id, 1));
    case GateKind::kNor:
      return ~(fetch(id, 0) | fetch(id, 1));
    case GateKind::kXor:
      return fetch(id, 0) ^ fetch(id, 1);
    case GateKind::kXnor:
      return ~(fetch(id, 0) ^ fetch(id, 1));
    case GateKind::kMux2: {
      const std::uint64_t sel = fetch(id, 0);
      return (sel & fetch(id, 2)) | (~sel & fetch(id, 1));
    }
    default:
      throw std::logic_error("eval: unknown gate kind");
  }
}

void Evaluator::sweep(const std::vector<NetId>& gates) {
  for (NetId id : gates) values_[id] = apply_output_force(id, compute(id));
}

void Evaluator::eval() { sweep(nl_->topo_order()); }

void Evaluator::step() {
  eval();
  latch(nl_->dffs());
}

void Evaluator::latch(const std::vector<NetId>& dffs) {
  for (NetId q : dffs) {
    const NetId d = nl_->gate(q).in[0];
    if (d == kNoNet) {
      throw std::logic_error("eval: DFF with unconnected D input");
    }
    state_[q] = values_[d];
  }
}

void Evaluator::reset_state(bool value) {
  const std::uint64_t w = value ? ~std::uint64_t{0} : 0;
  for (NetId q : nl_->dffs()) state_[q] = w;
}

void Evaluator::save_state(std::vector<std::uint64_t>& out) const {
  const std::vector<NetId>& dffs = nl_->dffs();
  out.resize(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i) out[i] = state_[dffs[i]];
}

void Evaluator::load_state(const std::vector<std::uint64_t>& in) {
  const std::vector<NetId>& dffs = nl_->dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) state_[dffs[i]] = in[i];
}

std::uint64_t Evaluator::diff_mask(NetId net, unsigned ref_lane) const {
  const std::uint64_t v = values_[net];
  const std::uint64_t ref = (v >> ref_lane) & 1u ? ~std::uint64_t{0} : 0;
  return v ^ ref;
}

}  // namespace sbst::netlist

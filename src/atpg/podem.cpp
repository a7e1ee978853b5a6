#include "atpg/podem.hpp"

#include <stdexcept>

namespace sbst::atpg {

using netlist::Gate;
using netlist::GateKind;
using netlist::Netlist;
using netlist::NetId;

void InputConstraints::fix_port(const Netlist& nl, const std::string& port,
                                std::uint64_t value) {
  const netlist::Bus& bus = nl.input_port(port);
  for (std::size_t i = 0; i < bus.size(); ++i) {
    fixed_[bus[i]] = (value >> i) & 1u;
  }
}

Podem::Podem(const Netlist& nl, InputConstraints constraints,
             PodemOptions options)
    : nl_(&nl),
      constraints_(std::move(constraints)),
      options_(options),
      pi_assign_(nl.size(), kVX),
      good_(nl.size(), kVX),
      bad_(nl.size(), kVX),
      outputs_(nl.output_nets()) {
  if (!nl.is_combinational()) {
    throw std::invalid_argument("Podem: combinational netlists only");
  }
}

Podem::V Podem::pin_value(const std::uint8_t* vals, NetId g, unsigned pin,
                          bool faulty) const {
  if (faulty && !fault_.site.is_output() && fault_.site.gate == g &&
      fault_.site.pin == pin) {
    return from_bool(fault_.stuck_value);
  }
  return static_cast<V>(vals[nl_->gate(g).in[pin]]);
}

Podem::V Podem::eval_gate(const std::uint8_t* vals, NetId id,
                          bool faulty) const {
  const Gate& g = nl_->gate(id);
  V v = g.kind == GateKind::kInput
            ? static_cast<V>(pi_assign_[id])
            : netlist::eval_gate3(g.kind, [&](unsigned p) {
                return pin_value(vals, id, p, faulty);
              });
  if (faulty && fault_.site.is_output() && fault_.site.gate == id) {
    v = from_bool(fault_.stuck_value);
  }
  return v;
}

void Podem::imply() {
  for (NetId id : nl_->topo_order()) {
    good_[id] = eval_gate(good_.data(), id, false);
    bad_[id] = eval_gate(bad_.data(), id, true);
  }
}

bool Podem::error_at_output() const {
  for (NetId out : outputs_) {
    if (is_d(out)) return true;
  }
  return false;
}

bool Podem::fault_excitable() const {
  const V g = static_cast<V>(good_[fault_line_]);
  return g == kVX || g == from_bool(!fault_.stuck_value);
}

bool Podem::x_path_exists() const {
  // Seeds: every net carrying a D, plus (for branch faults) the faulted
  // gate's output while it is still X — the error lives on the branch and
  // has not yet materialised on any net.
  std::vector<std::uint8_t> carries(nl_->size(), 0);
  bool any_seed = false;
  for (NetId id = 0; id < nl_->size(); ++id) {
    if (is_d(id)) {
      carries[id] = 1;
      any_seed = true;
    }
  }
  if (!fault_.site.is_output()) {
    const NetId g = fault_.site.gate;
    if ((good_[g] == kVX || bad_[g] == kVX) &&
        good_[fault_line_] == from_bool(!fault_.stuck_value)) {
      carries[g] = 1;
      any_seed = true;
    }
  }
  if (!any_seed) {
    // Nothing excited yet: possible iff the fault can still be excited.
    return fault_excitable();
  }
  // Forward closure: an error can cross a gate whose output is still X.
  for (NetId id : nl_->topo_order()) {
    if (carries[id]) continue;
    if (good_[id] != kVX && bad_[id] != kVX) continue;
    const Gate& g = nl_->gate(id);
    const unsigned n = fanin_count(g.kind);
    for (unsigned p = 0; p < n; ++p) {
      if (carries[g.in[p]]) {
        carries[id] = 1;
        break;
      }
    }
  }
  for (NetId out : outputs_) {
    if (carries[out]) return true;
  }
  return false;
}

std::optional<Podem::Objective> Podem::pick_objective() {
  // 1. Excite the fault if the fault line is still X.
  if (good_[fault_line_] == kVX) {
    return Objective{fault_line_, !fault_.stuck_value};
  }
  if (good_[fault_line_] == from_bool(fault_.stuck_value)) {
    return std::nullopt;  // constrained/implied to the stuck value
  }

  // 2. Advance the D-frontier. For a branch fault whose error has not yet
  //    reached a net, the frontier is the faulted gate itself.
  auto frontier_objective = [&](NetId gid,
                                int d_pin) -> std::optional<Objective> {
    const Gate& g = nl_->gate(gid);
    auto x_input = [&](int exclude) -> int {
      const unsigned n = fanin_count(g.kind);
      for (unsigned p = 0; p < n; ++p) {
        if (static_cast<int>(p) == exclude) continue;
        if (good_[g.in[p]] == kVX) return static_cast<int>(p);
      }
      return -1;
    };
    switch (g.kind) {
      case GateKind::kAnd:
      case GateKind::kNand: {
        const int p = x_input(d_pin);
        if (p < 0) return std::nullopt;
        return Objective{g.in[p], true};
      }
      case GateKind::kOr:
      case GateKind::kNor: {
        const int p = x_input(d_pin);
        if (p < 0) return std::nullopt;
        return Objective{g.in[p], false};
      }
      case GateKind::kXor:
      case GateKind::kXnor: {
        const int p = x_input(d_pin);
        if (p < 0) return std::nullopt;
        return Objective{g.in[p], false};
      }
      case GateKind::kMux2: {
        if (d_pin == 0 || is_d(g.in[0])) {
          // Error on the select: the data inputs must differ.
          const V d0 = static_cast<V>(good_[g.in[1]]);
          const V d1 = static_cast<V>(good_[g.in[2]]);
          if (d0 == kVX && d1 != kVX) return Objective{g.in[1], d1 == kV0};
          if (d1 == kVX && d0 != kVX) return Objective{g.in[2], d0 == kV0};
          if (d0 == kVX && d1 == kVX) return Objective{g.in[1], false};
          return std::nullopt;
        }
        // Error on a data input: steer the select toward it.
        const bool on_d1 = d_pin == 2 || (d_pin < 0 && is_d(g.in[2]));
        if (good_[g.in[0]] == kVX) return Objective{g.in[0], on_d1};
        return std::nullopt;
      }
      default:
        return std::nullopt;  // BUF/NOT propagate implicitly
    }
  };

  if (!fault_.site.is_output()) {
    const NetId gid = fault_.site.gate;
    if (good_[gid] == kVX || bad_[gid] == kVX) {
      if (auto obj = frontier_objective(gid, fault_.site.pin)) return obj;
    }
  }
  for (NetId id : nl_->topo_order()) {
    if (good_[id] != kVX && bad_[id] != kVX) continue;  // already resolved
    const Gate& g = nl_->gate(id);
    const unsigned n = fanin_count(g.kind);
    bool has_d_input = false;
    int d_pin = -1;
    for (unsigned p = 0; p < n; ++p) {
      if (is_d(g.in[p])) {
        has_d_input = true;
        d_pin = static_cast<int>(p);
        break;
      }
    }
    if (!has_d_input) continue;
    if (auto obj = frontier_objective(id, d_pin)) return obj;
  }
  return std::nullopt;
}

std::optional<Podem::Objective> Podem::backtrace(Objective obj) const {
  NetId net = obj.net;
  bool v = obj.value;
  for (;;) {
    const Gate& g = nl_->gate(net);
    auto first_x = [&]() -> int {
      const unsigned n = fanin_count(g.kind);
      for (unsigned p = 0; p < n; ++p) {
        if (good_[g.in[p]] == kVX) return static_cast<int>(p);
      }
      return -1;
    };
    switch (g.kind) {
      case GateKind::kInput:
        return Objective{net, v};
      case GateKind::kConst0:
      case GateKind::kConst1:
        return std::nullopt;  // cannot change a constant
      case GateKind::kBuf:
        net = g.in[0];
        break;
      case GateKind::kNot:
        net = g.in[0];
        v = !v;
        break;
      case GateKind::kAnd:
      case GateKind::kNand:
      case GateKind::kOr:
      case GateKind::kNor: {
        bool v_eff = v;
        if (g.kind == GateKind::kNand || g.kind == GateKind::kNor) {
          v_eff = !v;
        }
        const bool controlling =
            (g.kind == GateKind::kAnd || g.kind == GateKind::kNand) ? false
                                                                    : true;
        const int p = first_x();
        if (p < 0) return std::nullopt;
        net = g.in[p];
        // Output at controlling value: one controlling input suffices.
        // Output at non-controlling value: all inputs non-controlling.
        v = (v_eff == controlling) ? controlling : !controlling;
        break;
      }
      case GateKind::kXor:
      case GateKind::kXnor: {
        const int p = first_x();
        if (p < 0) return std::nullopt;
        const NetId other = g.in[1 - p];
        bool target = v;
        if (g.kind == GateKind::kXnor) target = !target;
        if (good_[other] != kVX) target = target ^ (good_[other] == kV1);
        net = g.in[p];
        v = target;
        break;
      }
      case GateKind::kMux2: {
        const V s = static_cast<V>(good_[g.in[0]]);
        if (s == kV0) {
          net = g.in[1];
        } else if (s == kV1) {
          net = g.in[2];
        } else {
          // Prefer a data input that already carries the target value.
          if (good_[g.in[1]] == from_bool(v)) {
            net = g.in[0];
            v = false;
          } else if (good_[g.in[2]] == from_bool(v)) {
            net = g.in[0];
            v = true;
          } else {
            net = g.in[0];
            v = false;
          }
        }
        break;
      }
      default:
        return std::nullopt;
    }
  }
}

bool Podem::search(unsigned& backtracks) {
  imply();
  if (error_at_output()) return true;
  if (!fault_excitable()) return false;
  if (!x_path_exists()) return false;

  const auto obj = pick_objective();
  if (!obj) return false;
  const auto pi = backtrace(*obj);
  if (!pi) return false;

  pi_assign_[pi->net] = from_bool(pi->value);
  if (search(backtracks)) return true;
  if (++backtracks > options_.backtrack_limit) {
    pi_assign_[pi->net] = kVX;
    return false;
  }
  pi_assign_[pi->net] = from_bool(!pi->value);
  if (search(backtracks)) return true;
  pi_assign_[pi->net] = kVX;
  return false;
}

AtpgOutcome Podem::generate(const fault::Fault& fault, Rng& rng) {
  fault_ = fault;
  fault_line_ = fault.site.is_output()
                    ? fault.site.gate
                    : nl_->gate(fault.site.gate).in[fault.site.pin];

  std::fill(pi_assign_.begin(), pi_assign_.end(), kVX);
  for (const auto& [net, value] : constraints_.all()) {
    pi_assign_[net] = from_bool(value);
  }

  AtpgOutcome out;
  unsigned backtracks = 0;
  const bool found = search(backtracks);
  out.backtracks = backtracks;
  if (found) {
    out.status = AtpgStatus::kDetected;
    out.pattern.reserve(nl_->inputs().size());
    for (NetId pi : nl_->inputs()) {
      const V v = static_cast<V>(pi_assign_[pi]);
      out.pattern.push_back(v == kVX ? rng.chance(0.5) : v == kV1);
    }
  } else {
    out.status = backtracks > options_.backtrack_limit ? AtpgStatus::kAborted
                                                       : AtpgStatus::kUntestable;
  }
  return out;
}

}  // namespace sbst::atpg

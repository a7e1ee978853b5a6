// Three-valued (0, 1, X) gate evaluation.
//
// The one three-valued gate rule of the code base: PODEM's implication
// (src/atpg/podem.cpp) and the campaign injector's op-constant pass
// (src/core/inject.cpp) both evaluate gates through eval_gate3, so a
// constant proven by one is a constant to the other.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/inline.hpp"
#include "netlist/netlist.hpp"

namespace sbst::netlist {

/// A three-valued net value: 0, 1 or unknown.
enum Logic3 : std::uint8_t { kLogic0 = 0, kLogic1 = 1, kLogicX = 2 };

inline Logic3 not3(Logic3 a) {
  return a == kLogicX ? kLogicX : (a == kLogic0 ? kLogic1 : kLogic0);
}
inline Logic3 and3(Logic3 a, Logic3 b) {
  if (a == kLogic0 || b == kLogic0) return kLogic0;
  if (a == kLogic1 && b == kLogic1) return kLogic1;
  return kLogicX;
}
inline Logic3 or3(Logic3 a, Logic3 b) {
  if (a == kLogic1 || b == kLogic1) return kLogic1;
  if (a == kLogic0 && b == kLogic0) return kLogic0;
  return kLogicX;
}
inline Logic3 xor3(Logic3 a, Logic3 b) {
  if (a == kLogicX || b == kLogicX) return kLogicX;
  return a == b ? kLogic0 : kLogic1;
}
/// `s ? d1 : d0`; with an unknown select the output is known only when both
/// data pins hold the same constant.
inline Logic3 mux3(Logic3 s, Logic3 d0, Logic3 d1) {
  if (s == kLogic0) return d0;
  if (s == kLogic1) return d1;
  return d0 == d1 && d0 != kLogicX ? d0 : kLogicX;
}

/// Output of a combinational gate of kind `kind` whose input pin p holds
/// `pin(p)`. Inputs and flip-flops have no gate rule: their values come
/// from outside the gate, so they throw. Forced inline: PODEM's implication
/// calls it twice per gate per decision, and the throwing default case
/// otherwise keeps GCC from inlining it there.
template <class Pin>
SBST_ALWAYS_INLINE inline Logic3 eval_gate3(GateKind kind, const Pin& pin) {
  switch (kind) {
    case GateKind::kConst0: return kLogic0;
    case GateKind::kConst1: return kLogic1;
    case GateKind::kBuf: return pin(0);
    case GateKind::kNot: return not3(pin(0));
    case GateKind::kAnd: return and3(pin(0), pin(1));
    case GateKind::kNand: return not3(and3(pin(0), pin(1)));
    case GateKind::kOr: return or3(pin(0), pin(1));
    case GateKind::kNor: return not3(or3(pin(0), pin(1)));
    case GateKind::kXor: return xor3(pin(0), pin(1));
    case GateKind::kXnor: return not3(xor3(pin(0), pin(1)));
    case GateKind::kMux2: return mux3(pin(0), pin(1), pin(2));
    default:
      throw std::logic_error("eval_gate3: no gate rule for inputs and DFFs");
  }
}

}  // namespace sbst::netlist

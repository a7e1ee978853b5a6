// PODEM combinational ATPG with instruction-imposed input constraints.
//
// The deterministic-ATPG TPG strategy of the paper (§3.3, strategy 1)
// requires "instruction-imposed constraint ATPG": when a self-test routine
// excites a component through instruction `function`, some CUT inputs are
// not freely controllable — e.g. the ALU "op" port is pinned to the opcode's
// operation, a shifter tested through `sll` has its op port pinned to 00.
//
// PODEM searches the primary-input space, which makes constraints trivial to
// honour: constrained inputs are pre-assigned before the search and
// therefore never appear as X, so the backtrace can never select them.
// Faults untestable under the constraints fall out as kUntestable.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "netlist/logic3.hpp"
#include "netlist/netlist.hpp"

namespace sbst::atpg {

/// Fixed primary-input values imposed by the exciting instruction.
class InputConstraints {
 public:
  InputConstraints() = default;

  /// Pins every bit of input port `port` to the corresponding bit of value.
  void fix_port(const netlist::Netlist& nl, const std::string& port,
                std::uint64_t value);
  /// Pins a single input net.
  void fix_net(netlist::NetId net, bool value) { fixed_[net] = value; }

  bool is_fixed(netlist::NetId net) const { return fixed_.count(net) != 0; }
  bool value_of(netlist::NetId net) const { return fixed_.at(net); }
  const std::unordered_map<netlist::NetId, bool>& all() const {
    return fixed_;
  }

 private:
  std::unordered_map<netlist::NetId, bool> fixed_;
};

enum class AtpgStatus : std::uint8_t {
  kDetected,    // test generated
  kUntestable,  // proven untestable under the constraints
  kAborted,     // backtrack limit exceeded
};

struct AtpgOutcome {
  AtpgStatus status = AtpgStatus::kAborted;
  /// Input assignment (per input net, in netlist().inputs() order) when
  /// status == kDetected. Unassigned (X) positions were filled randomly.
  std::vector<bool> pattern;
  unsigned backtracks = 0;
};

struct PodemOptions {
  unsigned backtrack_limit = 2000;
};

/// Single-fault PODEM on a combinational netlist.
class Podem {
 public:
  Podem(const netlist::Netlist& nl, InputConstraints constraints = {},
        PodemOptions options = {});

  /// Attempts to generate a test for `fault`. `rng` fills don't-care inputs.
  AtpgOutcome generate(const fault::Fault& fault, Rng& rng);

  const netlist::Netlist& netlist() const { return *nl_; }

 private:
  // Three-valued logic: 0, 1, X (netlist/logic3.hpp).
  using V = netlist::Logic3;
  static constexpr V kV0 = netlist::kLogic0;
  static constexpr V kV1 = netlist::kLogic1;
  static constexpr V kVX = netlist::kLogicX;
  static V from_bool(bool b) { return b ? kV1 : kV0; }

  void imply();  // full 3-valued good+faulty evaluation from PI assignments
  V eval_gate(const std::uint8_t* vals, netlist::NetId id, bool faulty) const;
  V pin_value(const std::uint8_t* vals, netlist::NetId g, unsigned pin,
              bool faulty) const;

  bool error_at_output() const;
  bool fault_excitable() const;
  bool x_path_exists() const;
  bool is_d(netlist::NetId net) const {
    return good_[net] != kVX && bad_[net] != kVX && good_[net] != bad_[net];
  }

  struct Objective {
    netlist::NetId net;
    bool value;
  };
  std::optional<Objective> pick_objective();
  std::optional<Objective> backtrace(Objective obj) const;

  bool search(unsigned& backtracks);

  const netlist::Netlist* nl_;
  InputConstraints constraints_;
  PodemOptions options_;
  fault::Fault fault_{};
  netlist::NetId fault_line_ = netlist::kNoNet;  // net carrying the fault

  std::vector<std::uint8_t> pi_assign_;  // per net: V (PIs only meaningful)
  std::vector<std::uint8_t> good_;
  std::vector<std::uint8_t> bad_;
  std::vector<netlist::NetId> outputs_;
};

}  // namespace sbst::atpg

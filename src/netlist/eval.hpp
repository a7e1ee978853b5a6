// 64-way bit-parallel netlist evaluation.
//
// Every net carries a 64-bit word. The two fault simulators interpret the
// lanes differently:
//  * PPSFP (combinational): each lane is one of 64 test patterns.
//  * Parallel-fault sequential: lane 0 is the fault-free machine, lanes 1..63
//    are faulty machines, each with one stuck-at fault forced.
//
// Faults are injected either on a net's driven value (stem faults) or on a
// single gate input pin (branch faults), per-lane via force masks.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace sbst::netlist {

/// Identifies a stuck-at injection site: a gate's output (pin == kOutputPin)
/// or one of its input pins (0-based).
struct Site {
  NetId gate = kNoNet;
  std::uint8_t pin = kOutputPin;

  static constexpr std::uint8_t kOutputPin = 0xff;

  bool is_output() const { return pin == kOutputPin; }
  friend bool operator==(const Site&, const Site&) = default;
};

class Evaluator {
 public:
  /// Words per lane block. The reference evaluator is fixed at one 64-bit
  /// word; the constant lets lane-generic grading templates (sim_detail.hpp)
  /// treat it uniformly with CompiledEvaluatorT<W>.
  static constexpr unsigned kWords = 1;
  static constexpr unsigned kLanes = 64;

  explicit Evaluator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  // ---- stimulus -----------------------------------------------------------

  /// Broadcasts scalar `bit` (replicated into all lanes) onto an input net.
  void set_input(NetId net, bool value) {
    inputs_[net] = value ? ~std::uint64_t{0} : 0;
  }
  /// Sets the raw 64-lane word of an input net.
  void set_input_word(NetId net, std::uint64_t word) { inputs_[net] = word; }
  /// Block form (kWords words) of set_input_word, for lane-generic callers.
  void set_input_block(NetId net, const std::uint64_t* words) {
    inputs_[net] = words[0];
  }

  /// Drives a bus from an integer (bit i of `value` -> bus[i]), broadcast.
  void set_bus(const Bus& bus, std::uint64_t value);
  /// Reads a bus as an integer from lane `lane`.
  std::uint64_t bus_value(const Bus& bus, unsigned lane = 0) const;

  // ---- fault injection ----------------------------------------------------

  /// Forces `site` to `stuck_value` in the lanes selected by `lane_mask`.
  void inject(const Site& site, bool stuck_value, std::uint64_t lane_mask);
  /// Forces a single lane in [0, kLanes).
  void inject_lane(const Site& site, bool stuck_value, unsigned lane) {
    inject(site, stuck_value, std::uint64_t{1} << lane);
  }
  /// Forces every lane.
  void inject_broadcast(const Site& site, bool stuck_value) {
    inject(site, stuck_value, ~std::uint64_t{0});
  }
  /// Block form (kWords words) of inject, for lane-generic callers.
  void inject_block(const Site& site, bool stuck_value,
                    const std::uint64_t* lane_mask) {
    inject(site, stuck_value, lane_mask[0]);
  }
  /// Removes any force on `site` — both polarities — in the lanes selected
  /// by `lane_mask`, leaving forces in other lanes (and on other sites)
  /// untouched. The windowed fault models (transient SEU, intermittent) use
  /// this to deactivate a lane's fault between evaluations / cycles;
  /// re-injecting a released site later is safe. clear_faults() still
  /// reverts everything.
  void release(const Site& site, std::uint64_t lane_mask);
  /// Releases a single lane in [0, kLanes).
  void release_lane(const Site& site, unsigned lane) {
    release(site, std::uint64_t{1} << lane);
  }
  /// Releases every lane of one site (other sites' forces stay).
  void release_broadcast(const Site& site) {
    release(site, ~std::uint64_t{0});
  }
  /// Block form (kWords words) of release, for lane-generic callers.
  void release_block(const Site& site, const std::uint64_t* lane_mask) {
    release(site, lane_mask[0]);
  }
  void clear_faults();
  bool has_faults() const { return has_faults_; }

  // ---- evaluation ---------------------------------------------------------

  /// Evaluates all combinational logic (DFF outputs hold current state).
  void eval();

  /// Hint that the whole stimulus changed (lane-generic callers issue this
  /// when broadcasting a fresh pattern). The reference evaluator always
  /// sweeps the full netlist, so this is a no-op.
  void request_full_eval() {}

  /// eval() and then clocks all DFFs (state <- D).
  void step();

  /// Sets every DFF's state word (broadcast scalar per flip-flop bit of
  /// `value` is NOT meaningful here; this resets all lanes of all DFFs to 0
  /// or all-ones).
  void reset_state(bool value = false);

  /// Copies every DFF's state word, in nl.dffs() order, into `out` (resized
  /// to fit). Lane-packed graders park one batch's flip-flops here while the
  /// same evaluator runs another batch.
  void save_state(std::vector<std::uint64_t>& out) const;
  /// Restores DFF state saved by save_state() on this evaluator.
  void load_state(const std::vector<std::uint64_t>& in);

  // ---- partial evaluation (cone-restricted sequential grading) ------------

  /// Evaluates exactly `gates`, in the given topological order, with every
  /// force applied; every other net keeps its value.
  void sweep(const std::vector<NetId>& gates);
  /// Clocks exactly the flip-flops `dffs` (state <- D).
  void latch(const std::vector<NetId>& dffs);
  /// Writes scalar `value`, broadcast, onto `net` and into its input shadow
  /// (the stimulus a later evaluation of an input net reads).
  void set_net(NetId net, bool value) {
    values_[net] = inputs_[net] = value ? ~std::uint64_t{0} : 0;
  }

  /// Raw 64-lane word on a net after eval().
  std::uint64_t value(NetId net) const { return values_[net]; }
  /// Word `w` of a net's lane block (w must be 0 here).
  std::uint64_t value_word(NetId net, unsigned /*w*/) const {
    return values_[net];
  }

  /// Lanes (as a mask) in which `net` differs from lane `ref_lane`.
  std::uint64_t diff_mask(NetId net, unsigned ref_lane = 0) const;
  /// Lanes of word `w` differing from reference lane `ref_lane` of word 0.
  std::uint64_t diff_word(NetId net, unsigned /*w*/,
                          unsigned ref_lane = 0) const {
    return diff_mask(net, ref_lane);
  }

 private:
  std::uint64_t apply_output_force(NetId id, std::uint64_t v) const {
    v |= force1_[id];
    v &= ~force0_[id];
    return v;
  }
  std::uint64_t fetch(NetId gate, unsigned pin) const;
  /// Gate `id`'s function of its (pin-forced) inputs, before its output
  /// force.
  std::uint64_t compute(NetId id) const;

  const Netlist* nl_;
  std::vector<std::uint64_t> values_;  // post-force values seen by fan-out
  std::vector<std::uint64_t> inputs_;  // pristine externally-set stimuli
  std::vector<std::uint64_t> state_;   // DFF state, indexed by net id
  std::vector<std::uint64_t> force0_;  // per-net stuck-at-0 lane masks
  std::vector<std::uint64_t> force1_;
  // Nets with a nonzero force0_/force1_ entry, so clear_faults() reverts
  // only what inject() touched instead of sweeping every net.
  std::vector<NetId> touched_forces_;
  struct PinForce {
    std::uint64_t f0 = 0;
    std::uint64_t f1 = 0;
  };
  // Sparse pin forces: key = gate * 4 + pin.
  std::unordered_map<std::uint64_t, PinForce> pin_forces_;
  bool has_faults_ = false;
};

}  // namespace sbst::netlist

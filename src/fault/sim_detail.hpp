// Grading kernels shared by the simulators in sim.cpp and sim_parallel.cpp.
// Internal to src/fault.
//
// Six kernels cover every fault model and schedule:
//
//  * grade_serial / grade_transition_serial: one fault at a time — the
//    oracle loops behind simulate_serial;
//  * grade_blocks: PPSFP, Ev::kWords 64-pattern blocks per eval, one fault
//    per eval with fault dropping;
//  * grade_lanes: lane packing, the good machine in lane 0 and one faulty
//    machine per other lane, one broadcast pattern per eval;
//  * grade_seq: lane packing through a clocked stimulus;
//  * grade_transition_blocks: launch/capture pairing on the block schedule.
//
// Every kernel except the transition pair is templated on an Activation
// policy: stuck-at faults are always active (resolved with if constexpr, so
// that instantiation never consults an activation stream), transient-SEU
// and intermittent faults are forced only where fault_active{,_word} is on.
//
// The kernels are also templated on the evaluator type, so they run
// unchanged on the reference Evaluator and the event-driven compiled
// evaluator at either lane width (see engine.hpp). They follow a
// single-evaluator discipline — good-machine pass, then per fault
// inject / eval / observe / clear_faults — which the event-driven engine
// turns into one fanout-cone propagation plus an O(touched) revert per
// fault. `reach` (nullable) is the output-cone prefilter: a fault whose
// site cannot structurally reach the observe set is skipped, which cannot
// change its detection flag (it would never be detected anyway).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "netlist/compiled.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"

namespace sbst::fault {

using ObserveSet = std::vector<netlist::NetId>;

namespace detail {

/// Empty observe set -> all declared outputs; throws if the netlist has none.
ObserveSet resolve_observe(const netlist::Netlist& nl,
                           const ObserveSet& observe);

void require_combinational(const netlist::Netlist& nl, const char* who);

/// Loads pattern block `b` (64 packed patterns) into the evaluator's inputs.
template <class Ev>
void apply_block(Ev& ev, const PatternSet& patterns, std::size_t b) {
  const auto& words = patterns.block(b);
  const auto& inputs = patterns.netlist().inputs();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ev.set_input_word(inputs[k], words[k]);
  }
}

/// Loads pattern blocks [b0, b0 + Ev::kWords) into the words of the
/// evaluator's lane blocks — 64 * kWords patterns per eval. Trailing
/// missing blocks are zero-padded (their valid-lane masks are 0, so the
/// padding never grades anything).
template <class Ev>
void apply_block_group(Ev& ev, const PatternSet& patterns, std::size_t b0) {
  constexpr unsigned W = Ev::kWords;
  const auto& inputs = patterns.netlist().inputs();
  const std::size_t n_blocks = patterns.block_count();
  std::uint64_t block[W];
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    for (unsigned w = 0; w < W; ++w) {
      block[w] = b0 + w < n_blocks ? patterns.block(b0 + w)[k] : 0;
    }
    ev.set_input_block(inputs[k], block);
  }
}

/// Loads the single pattern `p` broadcast into all 64 lanes.
template <class Ev>
void apply_pattern_broadcast(Ev& ev, const PatternSet& patterns,
                             std::size_t p) {
  const auto& words = patterns.block(p / 64);
  const unsigned lane = p % 64;
  const auto& inputs = patterns.netlist().inputs();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ev.set_input(inputs[k], (words[k] >> lane) & 1u);
  }
  // The whole stimulus just changed; a worklist pass would rediscover a
  // netlist-wide frontier gate by gate, so ask for one level-major sweep.
  ev.request_full_eval();
}

// ---- activation policies ---------------------------------------------------

/// When a kernel forces a fault's site: kAlways for stuck-at, kWindowed
/// (where the fault's activation stream is on) for transient SEU and
/// intermittent, and kTransition (launch/capture pairs, graded by the
/// transition kernels) for transition faults.
enum class Activation : std::uint8_t { kAlways, kWindowed, kTransition };

/// The activation policy of a homogeneous fault list's model; throws
/// std::invalid_argument on mixed lists. Empty lists grade as stuck-at
/// (every kernel is a no-op on them anyway).
Activation activation_of(const std::vector<Fault>& faults);

template <Activation A>
using ActivationTag = std::integral_constant<Activation, A>;

/// Calls fn(ActivationTag<act>{}) so a kernel can be instantiated for the
/// runtime policy `act`, which must be kAlways or kWindowed.
template <class Fn>
void with_activation(Activation act, const Fn& fn) {
  if (act == Activation::kWindowed) {
    fn(ActivationTag<Activation::kWindowed>{});
  } else {
    fn(ActivationTag<Activation::kAlways>{});
  }
}

/// Activation-stream keys of faults [begin, end), indexed from `begin`;
/// empty under kAlways, which never consults a stream.
template <Activation A>
std::vector<std::uint64_t> stream_keys(const std::vector<Fault>& faults,
                                       std::size_t begin, std::size_t end) {
  static_assert(A != Activation::kTransition);
  std::vector<std::uint64_t> keys;
  if constexpr (A == Activation::kWindowed) {
    keys.reserve(end - begin);
    for (std::size_t f = begin; f < end; ++f) {
      keys.push_back(fault_stream_key(faults[f]));
    }
  }
  return keys;
}

/// Lane-packed kernels under kWindowed: forces lane j + 1 with fault
/// base + j exactly while its stream is on at index `t`. Releasing a lane
/// keeps every other lane's force intact.
template <class Ev>
void toggle_lanes(Ev& ev, const std::vector<Fault>& faults, std::size_t base,
                  std::size_t batch, const std::uint64_t* keys,
                  std::uint64_t t, const std::uint8_t* reach,
                  std::vector<std::uint8_t>& active) {
  for (std::size_t j = 0; j < batch; ++j) {
    const Fault& f = faults[base + j];
    if (reach && !reach[f.site.gate]) continue;
    const bool on = fault_active(keys[j], f.model, t);
    if (on == static_cast<bool>(active[j])) continue;
    if (on) {
      ev.inject_lane(f.site, f.stuck_value, static_cast<unsigned>(j + 1));
    } else {
      ev.release_lane(f.site, static_cast<unsigned>(j + 1));
    }
    active[j] = on;
  }
}

/// Sets the flag of fault base + j for every detected lane j + 1.
template <unsigned W>
void write_lane_flags(const std::uint64_t (&detected)[W], std::size_t base,
                      std::size_t batch, std::uint8_t* flags) {
  for (std::size_t j = 0; j < batch; ++j) {
    if ((detected[(j + 1) / 64] >> ((j + 1) % 64)) & 1u) flags[base + j] = 1;
  }
}

// ---- kernels ---------------------------------------------------------------

/// The serial oracle: one broadcast pattern at a time, one fault at a time.
/// A dormant windowed fault is simply not injected for that pattern.
template <Activation A, class Ev>
void grade_serial(Ev& ev, const std::vector<Fault>& faults,
                  const PatternSet& patterns, const ObserveSet& observe,
                  const std::uint8_t* reach, std::uint8_t* flags) {
  const std::vector<std::uint64_t> keys =
      stream_keys<A>(faults, 0, faults.size());
  std::vector<std::uint64_t> good_out(observe.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    apply_pattern_broadcast(ev, patterns, p);
    ev.eval();
    for (std::size_t o = 0; o < observe.size(); ++o) {
      good_out[o] = ev.value(observe[o]);
    }
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (flags[f]) continue;
      if (reach && !reach[faults[f].site.gate]) continue;
      if constexpr (A == Activation::kWindowed) {
        if (!fault_active(keys[f], faults[f].model, p)) continue;
      }
      ev.inject(faults[f].site, faults[f].stuck_value, ~std::uint64_t{0});
      ev.eval();
      for (std::size_t o = 0; o < observe.size(); ++o) {
        if ((good_out[o] ^ ev.value(observe[o])) & 1u) {
          flags[f] = 1;
          break;
        }
      }
      ev.clear_faults();
    }
  }
}

/// PPSFP over faults [begin, end), Ev::kWords blocks per eval: a good pass
/// per block group, then one faulty eval per undetected fault with fault
/// dropping. Under kWindowed a fault is forced only in the lanes its stream
/// is on and skipped for a block group in which it is dormant. Flags are
/// independent of kWords: grouping only changes how many patterns each eval
/// carries, never whether some pattern detects a fault.
template <Activation A, class Ev>
void grade_blocks(Ev& ev, const std::vector<Fault>& faults, std::size_t begin,
                  std::size_t end, const PatternSet& patterns,
                  const ObserveSet& observe, const std::uint8_t* reach,
                  std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  const std::size_t n_blocks = patterns.block_count();
  const std::vector<std::uint64_t> keys = stream_keys<A>(faults, begin, end);
  std::vector<std::uint64_t> good_out(observe.size() * W);
  std::size_t undetected =
      static_cast<std::size_t>(std::count(flags + begin, flags + end, 0));
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks && undetected > 0; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.eval();  // good machine (the event engine branches each fault from it)
    for (std::size_t o = 0; o < observe.size(); ++o) {
      for (unsigned w = 0; w < W; ++w) {
        good_out[o * W + w] = ev.value_word(observe[o], w);
      }
    }
    for (std::size_t f = begin; f < end; ++f) {
      if (flags[f]) continue;  // fault dropping
      const Fault& fault = faults[f];
      if (reach && !reach[fault.site.gate]) continue;
      if constexpr (A == Activation::kAlways) {
        ev.inject_broadcast(fault.site, fault.stuck_value);
      } else {
        std::uint64_t act[W];
        std::uint64_t any = 0;
        for (unsigned w = 0; w < W; ++w) {
          act[w] = fault_active_word(keys[f - begin], fault.model, b + w) &
                   valid[w];
          any |= act[w];
        }
        if (any == 0) continue;  // dormant for this whole block group
        ev.inject_block(fault.site, fault.stuck_value, act);
      }
      ev.eval();
      bool det = false;
      for (std::size_t o = 0; o < observe.size() && !det; ++o) {
        for (unsigned w = 0; w < W; ++w) {
          if ((good_out[o * W + w] ^ ev.value_word(observe[o], w)) &
              valid[w]) {
            det = true;
            break;
          }
        }
      }
      if (det) {
        flags[f] = 1;
        --undetected;
      }
      ev.clear_faults();
    }
  }
}

/// Lane-packed grading of faults [begin, end): lane 0 is the fault-free
/// machine, lanes 1.. carry faulty machines, each pattern is broadcast into
/// all lanes. Under kAlways every lane is forced once per batch; under
/// kWindowed lanes are forced and released per pattern as their streams
/// switch. A batch stops consuming patterns once every injected lane has
/// been detected. A fault's detection depends only on its own lane, so flags
/// are independent of batch composition — chunk boundaries, thread count,
/// and lane width all wash out.
template <Activation A, class Ev>
void grade_lanes(Ev& ev, const std::vector<Fault>& faults, std::size_t begin,
                 std::size_t end, const PatternSet& patterns,
                 const ObserveSet& observe, const std::uint8_t* reach,
                 std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  constexpr std::size_t kFaultLanes = 64 * W - 1;  // lane 0 = good machine
  const std::vector<std::uint64_t> keys = stream_keys<A>(faults, begin, end);
  std::vector<std::uint8_t> active;  // kWindowed: lane j + 1 is forced
  for (std::size_t base = begin; base < end; base += kFaultLanes) {
    const std::size_t batch = std::min<std::size_t>(kFaultLanes, end - base);
    ev.clear_faults();
    std::uint64_t batch_lanes[W] = {};
    for (std::size_t j = 0; j < batch; ++j) {
      const Fault& f = faults[base + j];
      if (reach && !reach[f.site.gate]) continue;
      if constexpr (A == Activation::kAlways) {
        ev.inject_lane(f.site, f.stuck_value, static_cast<unsigned>(j + 1));
      }
      batch_lanes[(j + 1) / 64] |= std::uint64_t{1} << ((j + 1) % 64);
    }
    if constexpr (A == Activation::kWindowed) active.assign(batch, 0);
    std::uint64_t detected[W] = {};
    auto all_done = [&] {
      for (unsigned w = 0; w < W; ++w) {
        if ((detected[w] & batch_lanes[w]) != batch_lanes[w]) return false;
      }
      return true;
    };
    for (std::size_t p = 0; p < patterns.size() && !all_done(); ++p) {
      if constexpr (A == Activation::kWindowed) {
        toggle_lanes(ev, faults, base, batch, keys.data() + (base - begin), p,
                     reach, active);
      }
      apply_pattern_broadcast(ev, patterns, p);
      ev.eval();
      for (netlist::NetId out : observe) {
        for (unsigned w = 0; w < W; ++w) {
          detected[w] |= ev.diff_word(out, w, 0);
        }
      }
    }
    write_lane_flags(detected, base, batch, flags);
  }
}

/// Lane-packed sequential grading of faults [begin, end) through the whole
/// clocked stimulus, 64 * Ev::kWords - 1 faults per batch. Under kWindowed,
/// releasing a lane's force mid-run releases only the FORCE — any state
/// divergence the active window seeded persists in that lane's flip-flops,
/// which is exactly the transient-SEU / intermittent semantics: a one-cycle
/// flip can be caught many cycles later.
template <Activation A, class Ev>
void grade_seq(Ev& ev, const std::vector<Fault>& faults, std::size_t begin,
               std::size_t end, const SeqStimulus& stimulus,
               const ObserveSet& observe, const std::uint8_t* reach,
               std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  constexpr std::size_t kFaultLanes = 64 * W - 1;  // lane 0 = good machine
  const auto& inputs = ev.netlist().inputs();
  const std::vector<std::uint64_t> keys = stream_keys<A>(faults, begin, end);
  std::vector<std::uint8_t> active;  // kWindowed: lane j + 1 is forced
  for (std::size_t base = begin; base < end; base += kFaultLanes) {
    const std::size_t batch = std::min<std::size_t>(kFaultLanes, end - base);
    ev.clear_faults();
    ev.reset_state(false);
    if constexpr (A == Activation::kAlways) {
      for (std::size_t j = 0; j < batch; ++j) {
        const Fault& f = faults[base + j];
        if (reach && !reach[f.site.gate]) continue;
        ev.inject_lane(f.site, f.stuck_value, static_cast<unsigned>(j + 1));
      }
    } else {
      active.assign(batch, 0);
    }
    std::uint64_t detected[W] = {};
    for (std::size_t c = 0; c < stimulus.size(); ++c) {
      if constexpr (A == Activation::kWindowed) {
        toggle_lanes(ev, faults, base, batch, keys.data() + (base - begin), c,
                     reach, active);
      }
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        ev.set_input(inputs[k], stimulus.input_bit(c, k));
      }
      // Every input changes each cycle, so the frontier is netlist-wide.
      ev.request_full_eval();
      ev.step();
      if (stimulus.observed(c)) {
        for (netlist::NetId out : observe) {
          for (unsigned w = 0; w < W; ++w) {
            detected[w] |= ev.diff_word(out, w, 0);
          }
        }
      }
    }
    write_lane_flags(detected, base, batch, flags);
  }
}

// ---- transition grading ----------------------------------------------------
//
// A transition fault with captured (faulty) value sv is detected by a
// pattern pair: a launch pattern L under which the fault-free line carries
// sv, followed by a capture pattern L + 1 under which it carries !sv and the
// equivalent stuck-at-sv reaches an observed output. In SBST consecutive
// patterns are consecutive instructions, so the pairs are exactly what a
// routine delivers.

/// Fault-free per-block net values and observe-point responses, precomputed
/// ONCE with the reference Evaluator. Transition grading needs the good value
/// of the faulted LINE itself for launch/capture pairing, and optimized
/// compiled evaluators cannot provide it: dead-sweep liveness is computed on
/// post-fusion edges, so a fused-away gate's value array is stale.
struct TransitionBaseline {
  std::vector<std::vector<std::uint64_t>> vals;  // [block][net]
  std::vector<std::vector<std::uint64_t>> out;   // [block][observe index]
};

TransitionBaseline make_transition_baseline(const netlist::Netlist& nl,
                                            const PatternSet& patterns,
                                            const ObserveSet& observe);

/// The netlist line whose transition a fault site models.
inline netlist::NetId transition_line(const netlist::Netlist& nl,
                                      const netlist::Site& site) {
  return site.is_output() ? site.gate : nl.gate(site.gate).in[site.pin];
}

/// The serial transition oracle: one fault at a time, walking the 64-pattern
/// blocks in order with one faulty eval per block that has a capture lane.
/// Pairs within a block are launch lane L, capture lane L + 1; lane 63 of
/// block b pairs with lane 0 of block b + 1.
template <class Ev>
void grade_transition_serial(Ev& ev, const std::vector<Fault>& faults,
                             const PatternSet& patterns,
                             const ObserveSet& observe,
                             const TransitionBaseline& baseline,
                             const std::uint8_t* reach, std::uint8_t* flags) {
  const netlist::Netlist& nl = patterns.netlist();
  if (patterns.size() < 2) return;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const Fault& fault = faults[f];
    if (reach && !reach[fault.site.gate]) continue;
    const bool sv = fault.stuck_value;
    const netlist::NetId line = transition_line(nl, fault.site);
    std::uint64_t prev_launch_msb = 0;  // lane 63 launch state of block b-1
    for (std::size_t b = 0; b < patterns.block_count() && !flags[f]; ++b) {
      const std::uint64_t valid = patterns.valid_lanes(b);
      const std::uint64_t lv = baseline.vals[b][line];
      const std::uint64_t launch = (sv ? lv : ~lv) & valid;
      const std::uint64_t capture_value = (sv ? ~lv : lv) & valid;
      std::uint64_t capture = 0;
      if (capture_value != 0) {
        apply_block(ev, patterns, b);
        ev.request_full_eval();
        ev.inject(fault.site, sv, ~std::uint64_t{0});
        ev.eval();
        std::uint64_t detect = 0;
        for (std::size_t o = 0; o < observe.size(); ++o) {
          detect |= baseline.out[b][o] ^ ev.value(observe[o]);
        }
        ev.clear_faults();
        capture = capture_value & detect;
      }
      if (((launch << 1) & capture) || (prev_launch_msb && (capture & 1u))) {
        flags[f] = 1;
      }
      prev_launch_msb = (launch >> 63) & 1u;
    }
  }
}

/// Transition grading of faults [begin, end) against a precomputed baseline,
/// block-major so the event engine pays one stimulus propagation per block
/// group, with fault dropping. Bitwise-identical flags to
/// grade_transition_serial: per block, launch lanes carry the fault-free
/// value sv, capture lanes carry !sv AND the equivalent stuck-at-sv is
/// observed; lane 63 chains into lane 0 of the next block, and across group
/// words, via prev_msb.
template <class Ev>
void grade_transition_blocks(Ev& ev, const std::vector<Fault>& faults,
                             std::size_t begin, std::size_t end,
                             const PatternSet& patterns,
                             const ObserveSet& observe,
                             const TransitionBaseline& baseline,
                             const std::uint8_t* reach, std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  const netlist::Netlist& nl = patterns.netlist();
  const std::size_t n_blocks = patterns.block_count();
  if (patterns.size() < 2) return;

  // Per-fault cross-block state: the launch bit of the previous block's
  // lane 63 (blocks are visited strictly in order, so one word suffices).
  std::vector<std::uint8_t> prev_msb(end - begin, 0);
  std::size_t undetected = end - begin;
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks && undetected > 0; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.eval();  // good-machine baseline (the event engine branches from it)
    for (std::size_t f = begin; f < end; ++f) {
      if (flags[f]) continue;  // fault dropping
      const Fault& fault = faults[f];
      const bool sv = fault.stuck_value;  // captured (faulty) value
      const netlist::NetId line = transition_line(nl, fault.site);
      std::uint64_t launch[W], capture_value[W];
      std::uint64_t any_capture = 0;
      for (unsigned w = 0; w < W; ++w) {
        const std::uint64_t lv =
            valid[w] ? baseline.vals[b + w][line] : 0;
        launch[w] = (sv ? lv : ~lv) & valid[w];
        capture_value[w] = (sv ? ~lv : lv) & valid[w];
        any_capture |= capture_value[w];
      }
      std::uint64_t detect[W] = {};
      const bool reachable = !reach || reach[fault.site.gate];
      if (any_capture != 0 && reachable) {
        ev.inject_broadcast(fault.site, sv);
        ev.eval();
        for (std::size_t o = 0; o < observe.size(); ++o) {
          for (unsigned w = 0; w < W; ++w) {
            if (valid[w] == 0) continue;  // padded word: no baseline row
            detect[w] |=
                baseline.out[b + w][o] ^ ev.value_word(observe[o], w);
          }
        }
        ev.clear_faults();
      }
      std::uint8_t msb = prev_msb[f - begin];
      for (unsigned w = 0; w < W; ++w) {
        const std::uint64_t capture = capture_value[w] & detect[w];
        if (((launch[w] << 1) & capture) || (msb && (capture & 1u))) {
          flags[f] = 1;
        }
        msb = static_cast<std::uint8_t>((launch[w] >> 63) & 1u);
      }
      prev_msb[f - begin] = msb;
      if (flags[f]) --undetected;
    }
  }
}

}  // namespace detail
}  // namespace sbst::fault

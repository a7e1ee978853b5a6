// Grading kernels shared by the simulators in sim.cpp and sim_parallel.cpp.
// Internal to src/fault.
//
// Six kernels cover every fault model and schedule — three serial oracles,
// two production kernels (grade_cpt and grade_seq) and block PPSFP, which
// only tests still reach:
//
//  * grade_serial / grade_seq_serial / grade_transition_serial: one fault
//    at a time — the oracle loops behind simulate_serial (combinational,
//    clocked, and launch/capture respectively);
//  * grade_cpt: critical-path tracing, the production combinational kernel
//    for every fault model — Ev::kWords 64-pattern blocks per eval, one
//    good sweep per block group plus one event-driven flip per
//    fanout-free-region head that still has a live fault;
//  * grade_blocks: PPSFP, Ev::kWords 64-pattern blocks per eval, one fault
//    per eval with fault dropping (SimOptions::lane_parallel = false, which
//    only tests set);
//  * grade_seq: lane packing through a clocked stimulus, the good machine
//    in lane 0 and one faulty machine per other lane, with drop-and-repack
//    of detected faults between segments (flip-flop lane bits move with
//    their fault); each batch sweeps only its live fault cone and reads
//    every other net from a shared fault-free trace (SeqTrace).
//
// The kernels are templated on an Activation policy: stuck-at faults are
// always active (resolved with if constexpr, so that instantiation never
// consults an activation stream), transient-SEU and intermittent faults are
// forced only where fault_active{,_word} is on, and transition faults
// (grade_cpt and the serial oracle) pair launch and capture patterns.
//
// The kernels are also templated on the evaluator type, so they run
// unchanged on the reference Evaluator and the event-driven compiled
// evaluator at either lane width (see engine.hpp). Each call uses ONE
// evaluator: grade_seq parks every lane batch's flip-flops in a small
// save_state() buffer instead of building an evaluator per batch and drives
// it through the sweep / latch / set_net primitives, and the
// block kernels follow a good-machine pass, then per fault (grade_blocks)
// or per region head (grade_cpt) inject / eval / observe / clear_faults,
// which the event-driven engine turns into one fanout-cone propagation plus
// an O(touched) revert. `reach` (nullable) is the output-cone prefilter: a
// fault whose site cannot structurally reach the observe set is skipped,
// which cannot change its detection flag (it would never be detected
// anyway).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
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
/// intermittent, and kTransition (launch/capture pairs, graded by grade_cpt
/// and the serial oracle) for transition faults.
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

/// with_activation for kernels that also grade kTransition (grade_cpt).
template <class Fn>
void with_any_activation(Activation act, const Fn& fn) {
  if (act == Activation::kTransition) {
    fn(ActivationTag<Activation::kTransition>{});
  } else {
    with_activation(act, fn);
  }
}

/// Activation-stream keys of faults [begin, end), indexed from `begin`;
/// empty unless kWindowed, the only policy that consults a stream.
template <Activation A>
std::vector<std::uint64_t> stream_keys(const std::vector<Fault>& faults,
                                       std::size_t begin, std::size_t end) {
  std::vector<std::uint64_t> keys;
  if constexpr (A == Activation::kWindowed) {
    keys.reserve(end - begin);
    for (std::size_t f = begin; f < end; ++f) {
      keys.push_back(fault_stream_key(faults[f]));
    }
  }
  return keys;
}

// ---- lane-packed drop-and-repack ------------------------------------------
//
// grade_seq keeps a chunk's still-undetected faults in a live list,
// fault-index order, 64 * Ev::kWords - 1 per batch: live position p rides
// lane p % batch + 1 of batch p / batch, and lane 0 of every batch is the
// fault-free machine. All batches advance in lockstep segments of
// kRepackSegment steps; after each segment the survivors are counted from
// the flags and, when they fit in fewer batches, repacked. Every lane is an
// independent machine whose future depends only on its own flip-flop bits,
// its force, its stream key and the global step index, so regrouping lanes
// between segments never changes a flag (docs/METHODOLOGY.md).

/// Steps (patterns or clock cycles) every batch runs between repacks; one
/// SeqTrace window word holds a segment.
inline constexpr std::size_t kRepackSegment = 16;

/// Faults of [begin, end) that get graded: with a `reach` prefilter, only
/// those structurally able to reach the observe set at all.
inline std::vector<std::size_t> live_faults(const std::vector<Fault>& faults,
                                            std::size_t begin, std::size_t end,
                                            const std::uint8_t* reach) {
  std::vector<std::size_t> live;
  for (std::size_t f = begin; f < end; ++f) {
    if (!reach || reach[faults[f].site.gate]) live.push_back(f);
  }
  return live;
}

inline std::size_t batch_count(std::size_t n, std::size_t fault_lanes) {
  return (n + fault_lanes - 1) / fault_lanes;
}

/// Batch `b` of a live list: faults idx[0..n) ride lanes 1..n.
struct LaneBatch {
  const std::size_t* idx;
  std::size_t n;
};

inline LaneBatch lane_batch(const std::vector<std::size_t>& live,
                            std::size_t b, std::size_t fault_lanes) {
  const std::size_t first = b * fault_lanes;
  return {live.data() + first, std::min(fault_lanes, live.size() - first)};
}

/// Clears every force and arms a batch for one segment: under kAlways each
/// lane's fault is forced for the whole segment; under kWindowed every lane
/// starts released and toggle_lanes forces it step by step.
template <Activation A, class Ev>
void arm_lanes(Ev& ev, const std::vector<Fault>& faults,
               const LaneBatch& batch, std::vector<std::uint8_t>& active) {
  ev.clear_faults();
  if constexpr (A == Activation::kAlways) {
    for (std::size_t j = 0; j < batch.n; ++j) {
      const Fault& f = faults[batch.idx[j]];
      ev.inject_lane(f.site, f.stuck_value, static_cast<unsigned>(j + 1));
    }
  } else {
    active.assign(batch.n, 0);
  }
}

/// kWindowed: forces lane j + 1 with fault idx[j] exactly while its stream
/// is on at step `t`. `keys` is indexed by fault index - `begin`. Releasing
/// a lane keeps every other lane's force intact.
template <class Ev>
void toggle_lanes(Ev& ev, const std::vector<Fault>& faults,
                  const LaneBatch& batch, const std::uint64_t* keys,
                  std::size_t begin, std::uint64_t t,
                  std::vector<std::uint8_t>& active) {
  for (std::size_t j = 0; j < batch.n; ++j) {
    const Fault& f = faults[batch.idx[j]];
    const bool on = fault_active(keys[batch.idx[j] - begin], f.model, t);
    if (on == static_cast<bool>(active[j])) continue;
    if (on) {
      ev.inject_lane(f.site, f.stuck_value, static_cast<unsigned>(j + 1));
    } else {
      ev.release_lane(f.site, static_cast<unsigned>(j + 1));
    }
    active[j] = on;
  }
}

/// Sets the flag of fault idx[j] for every detected lane j + 1.
template <unsigned W>
void flag_lanes(const std::uint64_t (&detected)[W], const LaneBatch& batch,
                std::uint8_t* flags) {
  for (std::size_t j = 0; j < batch.n; ++j) {
    if ((detected[(j + 1) / 64] >> ((j + 1) % 64)) & 1u) {
      flags[batch.idx[j]] = 1;
    }
  }
}

/// grade_seq between segments: drops flagged faults and, when the survivors
/// fit in fewer batches, repacks them in fault-index order, moving each
/// survivor's flip-flop lane bits (`state[b]` holds batch b's save_state()
/// words) into its new lane. Lane 0 is the same good machine in every batch
/// and is copied from batch 0. Survivors are counted from `flags`, never
/// from one segment's detected bits: a lane detected earlier usually shows
/// no difference later. Returns false when no fault survives.
template <unsigned W>
bool repack_lanes(std::vector<std::size_t>& live,
                  std::vector<std::vector<std::uint64_t>>& state,
                  const std::uint8_t* flags) {
  constexpr std::size_t kFaultLanes = 64 * W - 1;
  std::vector<std::size_t> from;  // live positions of the survivors
  for (std::size_t p = 0; p < live.size(); ++p) {
    if (!flags[live[p]]) from.push_back(p);
  }
  if (from.empty()) return false;
  const std::size_t n_batches = batch_count(from.size(), kFaultLanes);
  if (n_batches == state.size()) return true;
  const std::size_t n_words = state.front().size();
  std::vector<std::vector<std::uint64_t>> packed(
      n_batches, std::vector<std::uint64_t>(n_words, 0));
  auto move_lane = [n_words](const std::vector<std::uint64_t>& src,
                             std::size_t src_lane,
                             std::vector<std::uint64_t>& dst,
                             std::size_t dst_lane) {
    for (std::size_t k = 0; k < n_words; k += W) {
      const std::uint64_t bit =
          (src[k + src_lane / 64] >> (src_lane % 64)) & 1u;
      dst[k + dst_lane / 64] |= bit << (dst_lane % 64);
    }
  };
  std::vector<std::size_t> survivors(from.size());
  for (std::size_t q = 0; q < from.size(); ++q) {
    const std::size_t p = from[q];
    move_lane(state[p / kFaultLanes], p % kFaultLanes + 1,
              packed[q / kFaultLanes], q % kFaultLanes + 1);
    survivors[q] = live[p];
  }
  for (std::vector<std::uint64_t>& batch : packed) {
    move_lane(state.front(), 0, batch, 0);
  }
  live = std::move(survivors);
  state = std::move(packed);
  return true;
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

// ---- cone-restricted sequential grading -----------------------------------
//
// A lane batch's faults can disturb only their forward closure over the
// original netlist edges, flip-flops included: the batch's live cone. Every
// net outside it carries the fault-free value in every lane, so grade_seq
// sweeps only the cone and writes the nets it reads from outside (its
// boundary) from a fault-free trace recorded once per stimulus, in the
// manner of PROOFS (Niermann, Cheng & Patel, DAC 1990). Flip-flops outside
// the cone are given the fault-free next state at the end of each segment,
// so a saved batch state stays complete and repack_lanes can move lanes
// between batches whose cones differ (docs/METHODOLOGY.md, "Cone-restricted
// sequential grading: why it is exact").

/// Everything cone-restricted sequential grading reads besides the
/// evaluator, for one (grading program, clocked stimulus): every net's
/// fault-free value per cycle, bit-packed, and the program structure cones
/// are cut from. The program is the compiled netlist's live gates in sweep
/// order, or the whole netlist in topological order for the reference
/// engine. Built once, shared read-only by every chunk and fault model.
struct SeqTrace {
  static_assert(kRepackSegment <= 16, "a segment fills one window word");

  /// Fault-free values of `net` over repack segment `k`: bit i is its value
  /// in cycle k * kRepackSegment + i (after evaluation, before the clock
  /// edge). Only the nets of `order` are meaningful.
  std::uint16_t window(std::size_t k, netlist::NetId net) const {
    return bits[k * nets + net];
  }
  bool value(std::size_t c, netlist::NetId net) const {
    return (window(c / kRepackSegment, net) >> (c % kRepackSegment)) & 1u;
  }

  std::size_t nets = 0;
  std::vector<std::uint16_t> bits;        // [segment * nets + net]
  std::vector<netlist::NetId> order;      // the program's sweep order
  std::vector<netlist::NetId> dffs;       // the program's flip-flops
  std::vector<std::uint32_t> fan_begin;   // original fanout CSR, D -> Q too
  std::vector<netlist::NetId> fan;
  std::vector<std::uint32_t> read_begin;  // [net] what evaluating it reads,
  std::vector<netlist::NetId> reads;      // a DFF's D net included
};

/// Records the fault-free run of `stimulus` on `compiled` (a W=1 compiled
/// evaluator) or, when it is null, on the netlist with the reference
/// Evaluator, and tabulates the program structure. Throws
/// std::invalid_argument if the stimulus was written for a netlist with a
/// different number of inputs.
SeqTrace make_seq_trace(const netlist::Netlist& nl,
                        const netlist::CompiledNetlist* compiled,
                        const SeqStimulus& stimulus);

/// One lane batch's live cone.
struct SeqCone {
  /// Undetected faults the cone was cut for (SIZE_MAX: not cut yet).
  std::size_t alive = ~std::size_t{0};
  std::vector<netlist::NetId> gates;     // swept per cycle, in sweep order
  std::vector<netlist::NetId> boundary;  // written from the trace
  std::vector<netlist::NetId> dffs;      // latched per cycle
  std::vector<netlist::NetId> frozen;    // the program's other flip-flops
  std::vector<netlist::NetId> observe;   // observed nets inside the cone
};

/// Cuts the cone of the batch's faults not yet flagged: their sites'
/// forward closure over the original edges, restricted to the swept gates.
/// The boundary is every net outside it that a cone gate reads (compiled
/// pins, the original pins of const-folded gates, the D nets of cone
/// flip-flops) plus the cone's primary inputs, which read their input
/// shadow. `mark` is scratch.
void cut_cone(const SeqTrace& trace, const netlist::Netlist& nl,
              const std::vector<Fault>& faults, const LaneBatch& batch,
              const std::uint8_t* flags, const ObserveSet& observe,
              SeqCone& cone, std::vector<std::uint8_t>& mark);

/// Lane-packed sequential grading of faults [begin, end) through the whole
/// clocked stimulus. Batches run in lockstep segments of kRepackSegment
/// cycles on ONE evaluator: each batch's flip-flops are parked in a
/// save_state() buffer between its segments, and repack_lanes moves the
/// survivors into fewer batches as soon as they fit. Per cycle a batch
/// writes its cone's boundary from `trace`, sweeps the cone, compares the
/// observed nets inside it and latches its flip-flops; the cone is re-cut
/// whenever the batch's undetected set changed. Under kWindowed, releasing
/// a lane's force mid-run releases only the FORCE — any state divergence
/// the active window seeded persists in that lane's flip-flops, which is
/// exactly the transient-SEU / intermittent semantics: a one-cycle flip can
/// be caught many cycles later.
template <Activation A, class Ev>
void grade_seq(Ev& ev, const std::vector<Fault>& faults, std::size_t begin,
               std::size_t end, const SeqStimulus& stimulus,
               const ObserveSet& observe, const SeqTrace& trace,
               const std::uint8_t* reach, std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  constexpr std::size_t kFaultLanes = 64 * W - 1;  // lane 0 = good machine
  const netlist::Netlist& nl = ev.netlist();
  const std::vector<std::uint64_t> keys = stream_keys<A>(faults, begin, end);
  std::vector<std::size_t> live = live_faults(faults, begin, end, reach);
  if (live.empty()) return;
  ev.clear_faults();
  ev.reset_state(false);
  std::vector<std::uint64_t> reset;
  ev.save_state(reset);
  std::vector<std::vector<std::uint64_t>> state(
      batch_count(live.size(), kFaultLanes), reset);
  std::vector<SeqCone> cones(state.size());
  std::vector<std::uint8_t> mark;
  std::vector<netlist::NetId> stale;
  std::vector<std::pair<netlist::NetId, std::uint16_t>> moving;
  std::vector<std::uint8_t> active;  // kWindowed: lane j + 1 is forced
  for (std::size_t c0 = 0; c0 < stimulus.size(); c0 += kRepackSegment) {
    const std::size_t c1 = std::min(c0 + kRepackSegment, stimulus.size());
    const std::uint16_t span =
        static_cast<std::uint16_t>((std::uint32_t{1} << (c1 - c0)) - 1);
    for (std::size_t b = 0; b < state.size(); ++b) {
      const LaneBatch batch = lane_batch(live, b, kFaultLanes);
      SeqCone& cone = cones[b];
      std::size_t alive = 0;
      for (std::size_t j = 0; j < batch.n; ++j) alive += !flags[batch.idx[j]];
      if (alive != cone.alive) {
        cut_cone(trace, nl, faults, batch, flags, observe, cone, mark);
      }
      ev.load_state(state[b]);
      arm_lanes<A>(ev, faults, batch, active);
      // Nothing but set_net writes a boundary net, so after the segment's
      // first cycle only the nets whose fault-free value moves need it.
      moving.clear();
      for (netlist::NetId n : cone.boundary) {
        const std::uint16_t bits = trace.window(c0 / kRepackSegment, n);
        ev.set_net(n, bits & 1u);
        if ((bits & span) != (bits & 1u ? span : 0)) {
          moving.push_back({n, bits});
        }
      }
      std::uint64_t detected[W] = {};
      for (std::size_t c = c0; c < c1; ++c) {
        if constexpr (A == Activation::kWindowed) {
          toggle_lanes(ev, faults, batch, keys.data(), begin, c, active);
        }
        if (c > c0) {
          for (const auto& [n, bits] : moving) {
            ev.set_net(n, (bits >> (c - c0)) & 1u);
          }
        }
        ev.sweep(cone.gates);
        if (stimulus.observed(c)) {
          for (netlist::NetId out : cone.observe) {
            for (unsigned w = 0; w < W; ++w) {
              detected[w] |= ev.diff_word(out, w, 0);
            }
          }
        }
        ev.latch(cone.dffs);
      }
      flag_lanes(detected, batch, flags);
      // The flip-flops outside the cone sat out the segment. Every lane
      // that still matters holds their fault-free state at c0 and must
      // leave with the fault-free next state; only those whose fault-free
      // value moved over the segment need a write.
      stale.clear();
      for (netlist::NetId q : cone.frozen) {
        const netlist::NetId d = nl.gate(q).in[0];
        const bool next = trace.value(c1 - 1, d);
        if (next == trace.value(c0, q)) continue;
        ev.set_net(d, next);
        stale.push_back(q);
      }
      ev.latch(stale);
      ev.save_state(state[b]);
    }
    const std::size_t batches = state.size();
    if (!repack_lanes<W>(live, state, flags)) break;
    if (state.size() != batches) cones.assign(state.size(), SeqCone{});
  }
}

/// The sequential serial oracle, on the reference evaluator: one fault at a
/// time through the whole clocked stimulus, forced in every lane (no lane
/// packing, no batches, no segments), compared with the fault-free
/// responses recorded once up front. Under kWindowed the force is applied
/// exactly at the cycles the fault's stream is on; the flip-flops keep
/// whatever a window seeded.
template <Activation A>
void grade_seq_serial(netlist::Evaluator& ev, const std::vector<Fault>& faults,
                      const SeqStimulus& stimulus, const ObserveSet& observe,
                      std::uint8_t* flags) {
  const auto& inputs = ev.netlist().inputs();
  const std::vector<std::uint64_t> keys =
      stream_keys<A>(faults, 0, faults.size());
  auto clock = [&](std::size_t c) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      ev.set_input(inputs[k], stimulus.input_bit(c, k));
    }
    ev.step();
  };
  std::vector<std::uint8_t> good(stimulus.size() * observe.size());
  ev.clear_faults();
  ev.reset_state(false);
  for (std::size_t c = 0; c < stimulus.size(); ++c) {
    clock(c);
    for (std::size_t o = 0; o < observe.size(); ++o) {
      good[c * observe.size() + o] = ev.value(observe[o]) & 1u;
    }
  }
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const Fault& fault = faults[f];
    ev.clear_faults();
    ev.reset_state(false);
    if constexpr (A == Activation::kAlways) {
      ev.inject_broadcast(fault.site, fault.stuck_value);
    }
    for (std::size_t c = 0; c < stimulus.size() && !flags[f]; ++c) {
      if constexpr (A == Activation::kWindowed) {
        ev.clear_faults();
        if (fault_active(keys[f], fault.model, c)) {
          ev.inject_broadcast(fault.site, fault.stuck_value);
        }
      }
      clock(c);
      if (!stimulus.observed(c)) continue;
      for (std::size_t o = 0; o < observe.size(); ++o) {
        if ((ev.value(observe[o]) & 1u) != good[c * observe.size() + o]) {
          flags[f] = 1;
          break;
        }
      }
    }
  }
}

// ---- fault-free baseline ----------------------------------------------------

/// Fault-free per-block net values and observe-point responses, precomputed
/// ONCE with the reference Evaluator. Transition and critical-path grading
/// need the good value of every original LINE, and optimized compiled
/// evaluators cannot provide it: dead-sweep liveness is computed on
/// post-fusion edges, so a fused-away gate's value array is stale.
struct GoodBaseline {
  std::vector<std::vector<std::uint64_t>> vals;  // [block][net]
  std::vector<std::vector<std::uint64_t>> out;   // [block][observe index]
};

GoodBaseline make_good_baseline(const netlist::Netlist& nl,
                                const PatternSet& patterns,
                                const ObserveSet& observe);

/// The netlist line a fault site forces: the gate's output net, or the net
/// its faulted input pin reads.
inline netlist::NetId fault_line(const netlist::Netlist& nl,
                                 const netlist::Site& site) {
  return site.is_output() ? site.gate : nl.gate(site.gate).in[site.pin];
}

// ---- transition grading ----------------------------------------------------
//
// A transition fault with captured (faulty) value sv is detected by a
// pattern pair: a launch pattern L under which the fault-free line carries
// sv, followed by a capture pattern L + 1 under which it carries !sv and the
// equivalent stuck-at-sv reaches an observed output. In SBST consecutive
// patterns are consecutive instructions, so the pairs are exactly what a
// routine delivers.

/// The serial transition oracle: one fault at a time, walking the 64-pattern
/// blocks in order with one faulty eval per block that has a capture lane.
/// Pairs within a block are launch lane L, capture lane L + 1; lane 63 of
/// block b pairs with lane 0 of block b + 1.
template <class Ev>
void grade_transition_serial(Ev& ev, const std::vector<Fault>& faults,
                             const PatternSet& patterns,
                             const ObserveSet& observe,
                             const GoodBaseline& baseline,
                             const std::uint8_t* reach, std::uint8_t* flags) {
  const netlist::Netlist& nl = patterns.netlist();
  if (patterns.size() < 2) return;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const Fault& fault = faults[f];
    if (reach && !reach[fault.site.gate]) continue;
    const bool sv = fault.stuck_value;
    const netlist::NetId line = fault_line(nl, fault.site);
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

// ---- critical-path tracing -------------------------------------------------
//
// The production combinational kernel (Abramovici et al., "Critical Path
// Tracing", DAC 1983). Cutting the netlist at every net whose fanout is not
// exactly one, at every observed net and at every primary input leaves a
// forest of fanout-free regions, each a tree rooted at its head. A fault
// inside a tree reaches the rest of the netlist only through its head, along
// the unique path from its site, so on one pattern it is detected exactly
// when it is activated (the good line value differs from the forced one),
// every gate on the path passes the change (its Boolean difference with
// respect to the path pin is 1 under the good values), and flipping the
// head changes an observed output. The first two follow from the good
// values alone; the third costs one event-driven eval per head and pattern
// group. That flip serves both polarities and every fault model in the
// tree: windowed and transition faults only AND in their activation
// (docs/METHODOLOGY.md, "Critical-path tracing: why it is exact").

/// The lanes in which flipping only input pin `pin` of `g` flips its output,
/// given the good values `vals` of the gate's inputs (the gate's Boolean
/// difference with respect to that pin).
inline std::uint64_t pin_sensitivity(const netlist::Gate& g, unsigned pin,
                                     const std::uint64_t* vals) {
  using netlist::GateKind;
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  switch (g.kind) {
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kXor:
    case GateKind::kXnor:
      return kAll;
    case GateKind::kAnd:
    case GateKind::kNand:
      return vals[g.in[pin ^ 1u]];
    case GateKind::kOr:
    case GateKind::kNor:
      return ~vals[g.in[pin ^ 1u]];
    case GateKind::kMux2:  // in[0] ? in[2] : in[1]
      if (pin == 0) return vals[g.in[1]] ^ vals[g.in[2]];
      return pin == 1 ? ~vals[g.in[0]] : vals[g.in[0]];
    default:
      return 0;  // sources have no pins
  }
}

/// Everything critical-path tracing reads besides the evaluator, for one
/// (netlist, observe set, pattern set): the good baseline, every net's
/// region head, and per block every net's sensitivity to its head (the
/// lanes in which flipping the net flips the head). Built once, shared
/// read-only by every chunk and every fault model.
struct CptTables {
  GoodBaseline good;
  std::vector<netlist::NetId> head;              // [net]
  std::vector<std::vector<std::uint64_t>> sens;  // [block][net]
};

CptTables make_cpt_tables(const netlist::Netlist& nl,
                          const PatternSet& patterns,
                          const ObserveSet& observe);

/// Critical-path tracing of faults [begin, end). Per group of Ev::kWords
/// blocks: one good-machine sweep, then for every region head that still
/// has a live fault in the chunk, one flip of the head in every valid lane
/// (forced to the complement of its baseline value, never of the
/// evaluator's own value, which is stale for fused-away nets), an
/// event-driven eval, the observed-output diff as the head's observability
/// mask, and an O(touched) clear_faults(). A fault is then detected in the
/// lanes valid & activated & path-sensitive & observable, ANDed with its
/// activation stream under kWindowed; under kTransition those lanes are the
/// capture lanes, paired with the previous lane's launch exactly as
/// grade_transition_serial pairs them (lane 63 chains into lane 0 of the
/// next block). Returns the number of flips per block group.
template <Activation A, class Ev>
std::vector<std::size_t> grade_cpt(Ev& ev, const std::vector<Fault>& faults,
                                   std::size_t begin, std::size_t end,
                                   const PatternSet& patterns,
                                   const ObserveSet& observe,
                                   const CptTables& cpt,
                                   const std::uint8_t* reach,
                                   std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  const netlist::Netlist& nl = patterns.netlist();
  const std::size_t n_blocks = patterns.block_count();
  const std::vector<std::uint64_t> keys = stream_keys<A>(faults, begin, end);

  // The chunk's live faults grouped by region head; a region's faults are
  // live[first, last), `alive` of them still undetected.
  struct Region {
    netlist::NetId head;
    std::size_t first, last, alive;
  };
  std::vector<std::size_t> live = live_faults(faults, begin, end, reach);
  std::erase_if(live, [flags](std::size_t f) { return flags[f] != 0; });
  auto head_of = [&](std::size_t f) { return cpt.head[faults[f].site.gate]; };
  std::stable_sort(live.begin(), live.end(),
                   [&](std::size_t a, std::size_t b) {
                     return head_of(a) < head_of(b);
                   });
  std::vector<Region> regions;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (regions.empty() || regions.back().head != head_of(live[i])) {
      regions.push_back({head_of(live[i]), i, i, 0});
    }
    ++regions.back().last;
    ++regions.back().alive;
  }
  std::size_t undetected = live.size();
  // kTransition: the launch bit of each fault's previous lane 63.
  std::vector<std::uint8_t> prev_msb(end - begin, 0);

  std::vector<std::size_t> flips;
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks && undetected > 0; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.request_full_eval();
    ev.eval();  // good machine; every flip branches from it
    std::size_t n_flips = 0;
    for (Region& region : regions) {
      if (region.alive == 0) continue;
      const netlist::Site head{region.head, netlist::Site::kOutputPin};
      std::uint64_t to1[W], to0[W];
      for (unsigned w = 0; w < W; ++w) {
        const std::uint64_t good =
            valid[w] ? cpt.good.vals[b + w][region.head] : 0;
        to1[w] = ~good & valid[w];
        to0[w] = good & valid[w];
      }
      ev.inject_block(head, true, to1);
      ev.inject_block(head, false, to0);
      ev.eval();
      std::uint64_t obs[W] = {};
      for (std::size_t o = 0; o < observe.size(); ++o) {
        for (unsigned w = 0; w < W; ++w) {
          if (valid[w] == 0) continue;  // padded word: no baseline row
          obs[w] |= cpt.good.out[b + w][o] ^ ev.value_word(observe[o], w);
        }
      }
      ev.clear_faults();
      ++n_flips;

      for (std::size_t i = region.first; i < region.last; ++i) {
        const std::size_t f = live[i];
        if (flags[f]) continue;
        const Fault& fault = faults[f];
        const netlist::Gate& gate = nl.gate(fault.site.gate);
        const netlist::NetId line = fault_line(nl, fault.site);
        const bool sv = fault.stuck_value;
        bool det = false;
        std::uint8_t msb = prev_msb[f - begin];
        for (unsigned w = 0; w < W; ++w) {
          if (valid[w] == 0) {
            msb = 0;
            continue;
          }
          const std::uint64_t* vals = cpt.good.vals[b + w].data();
          std::uint64_t path = cpt.sens[b + w][fault.site.gate];
          if (!fault.site.is_output()) {
            path &= pin_sensitivity(gate, fault.site.pin, vals);
          }
          const std::uint64_t lv = vals[line];
          std::uint64_t hit = (sv ? ~lv : lv) & path & obs[w] & valid[w];
          if constexpr (A == Activation::kWindowed) {
            hit &= fault_active_word(keys[f - begin], fault.model, b + w);
          }
          if constexpr (A == Activation::kTransition) {
            const std::uint64_t launch = (sv ? lv : ~lv) & valid[w];
            det |= ((launch << 1) & hit) != 0 || (msb && (hit & 1u));
            msb = static_cast<std::uint8_t>((launch >> 63) & 1u);
          } else {
            det |= hit != 0;
          }
        }
        prev_msb[f - begin] = msb;
        if (det) {
          flags[f] = 1;
          --region.alive;
          --undetected;
        }
      }
    }
    flips.push_back(n_flips);
  }
  return flips;
}

}  // namespace detail
}  // namespace sbst::fault

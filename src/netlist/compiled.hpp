// Compiled levelized netlist evaluation: multi-word SIMD lane blocks,
// event-driven incremental re-evaluation, and compile-time netlist
// optimization passes.
//
// The reference Evaluator (eval.hpp) walks the Gate structs in topological
// order on every eval(), probing a hash map for pin forces on each fetch.
// For fault grading — thousands of eval() calls against one netlist — that
// per-gate pointer chasing and hashing dominates. This engine compiles the
// netlist ONCE into a contiguous structure-of-arrays program:
//
//  * CompiledNetlist: immutable, shareable across threads. Opcode and dense
//    input-net indices per gate, a level-major evaluation order, a fanout
//    CSR over combinational edges, and per-gate combinational levels.
//  * CompiledEvaluatorT<W>: per-thread mutable state. Every net carries a
//    W-word block (uint64_t[W], W in {1, 4}) of 64*W independent lanes;
//    the per-word inner loops are plain element-wise ops, so the
//    autovectorizer emits SSE2/AVX2 for W=4 (see the SBST_NATIVE build
//    knob). Forces live in dense per-net (stem) blocks and in per-pin-slot
//    (branch, slot = gate*3 + pin) blocks handed out on a slot's first
//    force — no hash map — and only the touched entries are reverted on
//    clear_faults().
//
// Event-driven evaluation: every mutation (set_input, inject, clear_faults,
// DFF state change) schedules the affected gate on a level-bucketed
// worklist; eval() re-evaluates scheduled gates level by level, propagating
// to a gate's fanout only when its W-word block actually changed, and stops
// as soon as the frontier is empty. A single stuck-at fault therefore
// re-simulates only its fanout cone. While a transient fault is active
// (inject ... clear_faults with no input/state change in between), changed
// blocks are recorded in an undo log so teardown restores the fault-free
// baseline in O(touched) without re-evaluating anything.
//
// Partial evaluation: sweep(gates), latch(dffs) and set_net(net, value)
// evaluate a given gate list with the full sweep's force dispatch, clock a
// given flip-flop list, and write one net's broadcast value (and an input
// net's stimulus). They bypass the event machinery, so the next eval() is a
// full sweep. Cone-restricted sequential grading (src/fault) runs on them;
// the reference Evaluator offers the same three.
//
// Compile-time optimization passes (CompileOptions, off by default so a
// bare CompiledNetlist stays bit-for-bit the reference structure):
//
//  * fuse_inverters: every gate input pin that reads a kBuf/kNot chain is
//    retargeted to the chain's source with the chain's inversion parity
//    folded into a per-pin invert mask in the opcode table. DFF D pins are
//    never fused (the reference quirk below). Faults on bypassed chain
//    gates are remapped at inject() time onto the retargeted pin slots
//    (with parity), so detection flags never change.
//  * const_prop: gates whose (post-fusion) pins are tied to constants are
//    folded to cheaper ops (Buf/Not/And/Or/Const). A folded gate keeps its
//    original opcode and inputs on the side; whenever a pin force or a
//    fault on a consumed constant is active on it, evaluation falls back
//    to the original form, so fault behavior is exact.
//  * dead_sweep: gates outside the union of observe cones (the fanin cone
//    of ALL declared outputs, plus everything the fallback paths above may
//    read) are dropped from the evaluation order and the fanout CSR. A
//    fault on a swept gate is unobservable in the reference engine too, so
//    flags are unchanged.
//
// The lane semantics, the force semantics (including the reference quirk
// that DFFs ignore pin forces on their D input), and every value observable
// on a live net are bitwise-identical to the reference Evaluator for any
// call sequence that injects at most one stuck-at fault per lane (the
// contract every fault simulator in src/fault obeys). Without optimization
// passes the equivalence holds for arbitrary force combinations and every
// net.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/serialize.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"

// The compute helpers sit on the innermost path of the full sweep (gates x
// W words per eval). Left to its own devices GCC outlines them (one call +
// vzeroupper + a ymm spill per gate), which costs more than the gate
// function itself — force the inline. `out` is declared restrict: it points
// at the gate's own value block, which no pin read of the same gate can
// alias (the netlist is cycle-checked, so in[p] != g), and the promise is
// what lets the per-case W-word store loops SLP-vectorize after inlining.
#if defined(__GNUC__) || defined(__clang__)
#define SBST_ALWAYS_INLINE __attribute__((always_inline))
#define SBST_RESTRICT __restrict__
#else
#define SBST_ALWAYS_INLINE
#define SBST_RESTRICT
#endif

namespace sbst::netlist {

/// Compile-time netlist optimization toggles. Default: all off (the
/// compiled structure mirrors the Netlist gate-for-gate).
struct CompileOptions {
  bool const_prop = false;
  bool fuse_inverters = false;
  bool dead_sweep = false;

  bool any() const { return const_prop || fuse_inverters || dead_sweep; }
  static constexpr CompileOptions all() {
    return CompileOptions{true, true, true};
  }
  friend bool operator==(const CompileOptions&,
                         const CompileOptions&) = default;
};

class CompiledNetlist {
 public:
  explicit CompiledNetlist(const Netlist& nl,
                           const CompileOptions& opts = {});

  const Netlist& netlist() const { return *nl_; }
  std::size_t size() const { return op_.size(); }
  const CompileOptions& options() const { return opts_; }

  /// Gates that survived the optimization passes (== size() when no pass
  /// ran); the number of gates a full sweep evaluates.
  std::size_t live_gates() const { return order_.size(); }

  /// Number of combinational levels (sources are level 0).
  unsigned levels() const { return n_levels_; }

  /// True when evaluations compute net `n`: always without the dead sweep,
  /// else only for the fanin of the declared outputs (and what the
  /// const-fold fallbacks read).
  bool live(NetId n) const { return live_[n] != 0; }

  /// Live gates in full-sweep order: level-major, so every gate comes after
  /// every net it reads.
  const std::vector<NetId>& order() const { return order_; }
  /// Live flip-flops, in save_state() order.
  const std::vector<NetId>& dffs() const { return dffs_; }
  /// Calls fn(net) for every net an evaluation of gate `g` may read: its
  /// compiled pins and, for a const-folded gate, its original pins (the
  /// fallback path under a force). A DFF reads none (its D net is read when
  /// it latches).
  template <class Fn>
  void for_each_read(NetId g, const Fn& fn) const;

  /// Marks every gate in the transitive fanin of `roots` (roots included),
  /// traversing ORIGINAL combinational edges and DFF D edges — the
  /// pre-optimization structure, so the prefilter is identical for every
  /// CompileOptions. A stuck-at fault at a gate outside this cone can never
  /// change a root's value, so fault simulation may skip it without
  /// altering detection flags.
  std::vector<std::uint8_t> fanin_cone(const std::vector<NetId>& roots) const;

  /// Binary-image format version. Part of every artifact-store key, so a
  /// layout change makes old entries miss (and rebuild) instead of
  /// deserializing garbage.
  static constexpr std::uint32_t kSerialVersion = 1;

  /// Appends a versioned binary image of the compiled structure to `w`.
  /// The image captures only what compilation derived — the source netlist
  /// is re-bound on deserialize, so the blob is valid exactly for netlists
  /// with the content the store key names.
  void serialize(common::ByteWriter& w) const;

  /// Rebuilds a compiled netlist from serialize() bytes produced against a
  /// structurally identical `nl`. Returns nullptr on ANY malformed or
  /// inconsistent image — wrong version, truncation, out-of-range indices —
  /// in which case the caller compiles from scratch.
  static std::unique_ptr<CompiledNetlist> deserialize(
      const Netlist& nl, common::ByteReader& r);

 private:
  template <unsigned W>
  friend class CompiledEvaluatorT;

  /// inject() side effect on a retargeted pin: force slot `slot` to the
  /// injected value xor `invert`.
  struct Remap {
    std::uint32_t slot;
    std::uint8_t invert;
  };

  struct DeserializeTag {};
  /// Shell for deserialize(): binds the netlist, fills nothing.
  CompiledNetlist(const Netlist& nl, const CompileOptions& opts,
                  DeserializeTag)
      : nl_(&nl), opts_(opts) {}

  void build_order_and_fanout();
  void build_slots();
  void optimize();

  const std::uint8_t* orig_ops() const {
    return orig_op_.empty() ? op_.data() : orig_op_.data();
  }
  const NetId* orig_ins() const {
    return orig_in_.empty() ? in_.data() : orig_in_.data();
  }

  const Netlist* nl_;
  CompileOptions opts_;
  std::vector<std::uint8_t> op_;          // GateKind, indexed by net id
  std::vector<NetId> in_;                 // 3 slots per gate, kNoNet padded
  std::vector<std::uint8_t> inv_;         // per-pin invert mask, bit p
  std::vector<std::uint8_t> orig_op_;     // pre-optimization opcode (if any())
  std::vector<NetId> orig_in_;            // pre-optimization inputs (if any())
  std::vector<std::uint8_t> folded_;      // const-folded: fall back under forces
  std::vector<std::uint8_t> live_;        // survives dead sweep
  std::vector<std::uint32_t> level_;      // combinational level per gate
  std::vector<NetId> order_;              // live gates, level-major, id-minor
  std::vector<std::uint32_t> fan_begin_;  // CSR offsets into fan_, size n+1
  std::vector<NetId> fan_;                // combinational fanout targets (live)
  std::vector<NetId> dffs_;               // live DFFs
  // Per net: an input's position in nl.inputs(), a live DFF's in dffs_;
  // evaluators keep stimuli and state densely in that order. Derived, not
  // serialized.
  std::vector<std::uint32_t> slot_;
  // Fusion fault remap: per gate, the retargeted pin slots a force injected
  // on this gate must be copied to. Empty vectors when no pass ran.
  std::vector<std::uint32_t> remap_begin_;
  std::vector<Remap> remap_;
  // Const-prop fault markers: per gate, the folded gates whose original
  // evaluation must be re-activated while a fault sits on this gate.
  std::vector<std::uint32_t> marker_begin_;
  std::vector<NetId> marker_;
  unsigned n_levels_ = 0;
};

template <class Fn>
void CompiledNetlist::for_each_read(NetId g, const Fn& fn) const {
  const GateKind kind = static_cast<GateKind>(op_[g]);
  if (kind == GateKind::kDff) return;
  for (unsigned p = 0; p < fanin_count(kind); ++p) {
    const NetId s = in_[g * 3 + p];
    if (s != kNoNet) fn(s);
  }
  if (folded_.empty() || !folded_[g]) return;
  const GateKind ok = static_cast<GateKind>(orig_op_[g]);
  for (unsigned p = 0; p < fanin_count(ok); ++p) {
    const NetId s = orig_in_[g * 3 + p];
    if (s == kNoNet) continue;
    bool dup = false;
    for (unsigned q = 0; q < fanin_count(kind); ++q) {
      if (in_[g * 3 + q] == s) dup = true;
    }
    if (!dup) fn(s);
  }
}

/// Drop-in replacement for Evaluator (same stimulus / inject / observe API)
/// backed by a CompiledNetlist, evaluating W-word lane blocks per net.
/// W=1 (the CompiledEvaluator alias) is the classic 64-lane evaluator; W=4
/// carries 256 lanes so one lane-packed grading pass covers 255 faults plus
/// the good machine in lane 0. Construct from a shared CompiledNetlist to
/// amortize compilation across per-thread instances, or directly from a
/// Netlist for convenience.
template <unsigned W>
class CompiledEvaluatorT {
 public:
  static_assert(W == 1 || W == 4, "supported lane widths: 1 or 4 words");
  static constexpr unsigned kWords = W;
  static constexpr unsigned kLanes = 64 * W;

  explicit CompiledEvaluatorT(const CompiledNetlist& cn);
  explicit CompiledEvaluatorT(const Netlist& nl);
  explicit CompiledEvaluatorT(std::shared_ptr<const CompiledNetlist> cn);

  const Netlist& netlist() const { return cn_->netlist(); }
  const CompiledNetlist& compiled() const { return *cn_; }

  // ---- stimulus (mirrors Evaluator) ---------------------------------------

  /// Broadcasts a scalar into all 64*W lanes.
  void set_input(NetId net, bool value) {
    const std::uint64_t w = value ? ~std::uint64_t{0} : 0;
    std::uint64_t block[W];
    for (unsigned i = 0; i < W; ++i) block[i] = w;
    set_input_block(net, block);
  }
  /// Replicates one 64-lane word into every word of the block (on W=1 this
  /// is the classic raw-word setter).
  void set_input_word(NetId net, std::uint64_t word) {
    std::uint64_t block[W];
    for (unsigned i = 0; i < W; ++i) block[i] = word;
    set_input_block(net, block);
  }
  /// Sets the full W-word lane block of an input net.
  void set_input_block(NetId net, const std::uint64_t* words);
  void set_bus(const Bus& bus, std::uint64_t value);
  std::uint64_t bus_value(const Bus& bus, unsigned lane = 0) const;

  // ---- fault injection ----------------------------------------------------

  /// Forces lanes of word 0 (compat form; lanes 64.. of wider blocks are
  /// untouched).
  void inject(const Site& site, bool stuck_value, std::uint64_t lane_mask) {
    std::uint64_t mask[W] = {};
    mask[0] = lane_mask;
    inject_block(site, stuck_value, mask);
  }
  /// Forces a single lane in [0, 64*W).
  void inject_lane(const Site& site, bool stuck_value, unsigned lane) {
    std::uint64_t mask[W] = {};
    mask[lane / 64] = std::uint64_t{1} << (lane % 64);
    inject_block(site, stuck_value, mask);
  }
  /// Forces every lane of every word.
  void inject_broadcast(const Site& site, bool stuck_value) {
    std::uint64_t mask[W];
    for (unsigned i = 0; i < W; ++i) mask[i] = ~std::uint64_t{0};
    inject_block(site, stuck_value, mask);
  }
  /// Forces `site` to `stuck_value` in the lanes selected per word.
  void inject_block(const Site& site, bool stuck_value,
                    const std::uint64_t* lane_mask);
  /// Removes any force on `site` — both polarities, including the fused
  /// remap slots — in the lanes selected per word, leaving forces in other
  /// lanes (and on other sites) untouched. The site stays listed for
  /// clear_faults() teardown and its const-prop fallback activations stay
  /// in place (the original evaluation computes the same values as the
  /// folded form once the force is zero), so releasing and re-injecting
  /// between evaluations is cheap and safe. This is the cycle-windowed
  /// injection primitive the transient-SEU / intermittent fault models use
  /// to toggle a lane's fault between sequential cycles; the block-granular
  /// undo log keeps working across it.
  void release_block(const Site& site, const std::uint64_t* lane_mask);
  /// Releases a single lane in [0, 64*W).
  void release_lane(const Site& site, unsigned lane) {
    std::uint64_t mask[W] = {};
    mask[lane / 64] = std::uint64_t{1} << (lane % 64);
    release_block(site, mask);
  }
  void clear_faults();
  bool has_faults() const { return has_faults_; }

  // ---- evaluation ---------------------------------------------------------

  void eval();
  void step();
  void reset_state(bool value = false);

  /// Copies the W-word state block of every live DFF, in dffs order, into
  /// `out` (resized to fit). Lane-packed graders park one batch's
  /// flip-flops here while the same evaluator runs another batch.
  void save_state(std::vector<std::uint64_t>& out) const;
  /// Restores DFF state saved by save_state() on this evaluator. The next
  /// eval() is a full sweep and the undo log is invalidated, since every
  /// lane's baseline may have moved.
  void load_state(const std::vector<std::uint64_t>& in);

  // ---- partial evaluation (cone-restricted sequential grading) ------------
  //
  // These bypass the event machinery: each leaves values_ consistent only
  // on the nets it wrote, so the next eval() is a full sweep and the undo
  // log is invalidated.

  /// Evaluates exactly `gates`, in the given order (a subsequence of the
  /// compiled sweep order), with the full sweep's force dispatch; every
  /// other net keeps its value. Adds gates.size() to gate_evals().
  void sweep(const std::vector<NetId>& gates);
  /// Clocks exactly the flip-flops `dffs` (state <- D).
  void latch(const std::vector<NetId>& dffs);
  /// Writes scalar `value`, broadcast to every lane, onto `net` and, for an
  /// input net, into its input shadow (the stimulus a later evaluation of
  /// the net reads).
  void set_net(NetId net, bool value) {
    const std::uint64_t w = value ? ~std::uint64_t{0} : 0;
    for (unsigned i = 0; i < W; ++i) values_[net * W + i] = w;
    if (cn_->op_[net] == static_cast<std::uint8_t>(GateKind::kInput)) {
      for (unsigned i = 0; i < W; ++i) inputs_[cn_->slot_[net] * W + i] = w;
    }
    partial_write();
  }

  /// Marks the next eval() as a full sweep. Callers that change the whole
  /// stimulus at once (a lane-packed grader broadcasting a fresh pattern to
  /// every input) issue this instead of letting the worklist rediscover a
  /// netlist-wide frontier: the level-major sweep skips queue bookkeeping
  /// and per-gate changed-checks and is what the autovectorizer turns into
  /// W-word SIMD. Values are identical either way; full_eval() invalidates
  /// the undo log exactly as the equivalent chain of recorded events would.
  void request_full_eval() { full_pending_ = true; }

  /// Word 0 of a net's lane block.
  std::uint64_t value(NetId net) const { return values_[net * W]; }
  /// Word `w` of a net's lane block.
  std::uint64_t value_word(NetId net, unsigned w) const {
    return values_[net * W + w];
  }
  /// Lanes of word 0 differing from lane `ref_lane` (of word 0).
  std::uint64_t diff_mask(NetId net, unsigned ref_lane = 0) const {
    return diff_word(net, 0, ref_lane);
  }
  /// Lanes of word `w` differing from reference lane `ref_lane` of word 0
  /// (the good-machine lane for lane-packed grading).
  std::uint64_t diff_word(NetId net, unsigned w, unsigned ref_lane = 0) const {
    const std::uint64_t ref =
        (values_[net * W] >> ref_lane) & 1u ? ~std::uint64_t{0} : 0;
    return values_[net * W + w] ^ ref;
  }

  // ---- instrumentation ----------------------------------------------------

  /// Cumulative count of gate evaluations performed by eval() calls (a full
  /// sweep adds live_gates(); an event pass adds only the gates it visited).
  /// Used by the throughput bench to report average active-cone size per
  /// fault.
  std::uint64_t gate_evals() const { return gate_evals_; }
  void reset_stats() { gate_evals_ = 0; }

 private:
  CompiledEvaluatorT(std::shared_ptr<const CompiledNetlist> owned,
                     const CompiledNetlist& cn);
  SBST_ALWAYS_INLINE void compute(NetId g,
                                  std::uint64_t* SBST_RESTRICT out) const;
  SBST_ALWAYS_INLINE void compute_plain(NetId g,
                                        std::uint64_t* SBST_RESTRICT out) const;
  SBST_ALWAYS_INLINE void compute_orig(NetId g,
                                       std::uint64_t* SBST_RESTRICT out) const;
  template <bool kForces>
  void sweep_gates(const std::vector<NetId>& gates);
  void partial_write() {
    if (undo_active_) invalidate_undo();
    full_pending_ = true;
  }
  void full_eval();
  void event_eval();
  void schedule(NetId g);
  void schedule_live(NetId g) {
    if (cn_->live_[g]) schedule(g);
  }
  void invalidate_undo();
  void force_slot(std::uint32_t slot, bool stuck_value,
                  const std::uint64_t* lane_mask);
  void update_dispatch(NetId g);

  std::shared_ptr<const CompiledNetlist> owned_;  // only for the Netlist ctor
  const CompiledNetlist* cn_;
  bool opt_;  // any optimization pass ran (enables the fallback machinery)

  std::vector<std::uint64_t> values_;  // net * W + word
  std::vector<std::uint64_t> inputs_;  // input slot * W + word
  std::vector<std::uint64_t> state_;   // DFF slot * W + word (dffs order)

  // Dense force stores; invariant: every gate/slot with a nonzero block is
  // listed in the corresponding touched_ vector and counted in the per-gate
  // bytes below, so teardown is O(touched) and the hot loop can skip force
  // loads for unforced gates.
  std::vector<std::uint64_t> out_f0_, out_f1_;  // net * W + word
  // Pin forces are sparse: block b * W of pin_f0_ / pin_f1_ belongs to slot
  // touched_pin_[b - 1], and block 0 stays zero for every unlisted slot.
  std::vector<std::uint64_t> pin_f0_, pin_f1_;
  std::vector<std::uint8_t> out_forced_;        // per gate
  std::vector<std::uint8_t> pin_forced_;        // forced slots per gate (0..3)
  // Per slot (gate*3 + pin): its pin force block, 0 = unlisted. Listing is
  // decided by this index — NOT by whether the force blocks are nonzero — so
  // a slot whose lanes were all release_block()ed (blocks back to zero) is
  // not double-listed (and pin_forced_ not double-counted) when re-injected.
  std::vector<std::uint32_t> pin_block_;
  std::vector<std::uint16_t> fallback_cnt_;     // const-marker activations
  // Per-gate compute dispatch, folded from the force state above so the hot
  // loops do one predictable byte test instead of three scattered loads:
  // 0 = compute_plain and no output force; else kDispatchOrig/Pins selects
  // the compute routine and kDispatchOut requests the output-force blend.
  static constexpr std::uint8_t kDispatchOrig = 1;
  static constexpr std::uint8_t kDispatchPins = 2;
  static constexpr std::uint8_t kDispatchOut = 4;
  std::vector<std::uint8_t> dispatch_;
  std::vector<NetId> touched_out_;
  std::vector<std::uint32_t> touched_pin_;
  std::vector<NetId> touched_fallback_;  // one entry per activation
  bool has_faults_ = false;

  // Event machinery.
  std::vector<std::vector<NetId>> queue_;  // one bucket per level
  std::vector<std::uint8_t> queued_;       // dedupe marks
  std::size_t pending_ = 0;
  bool full_pending_ = true;  // first eval() must be a full sweep

  // Undo log: (net, previous block) in overwrite order; valid only while
  // the sole perturbations since the last fault-free eval() are injected
  // forces.
  struct UndoEntry {
    NetId net;
    std::array<std::uint64_t, W> prev;
  };
  std::vector<UndoEntry> undo_;
  bool undo_active_ = false;

  std::uint64_t gate_evals_ = 0;
};

/// The classic single-word (64-lane) evaluator.
using CompiledEvaluator = CompiledEvaluatorT<1>;

extern template class CompiledEvaluatorT<1>;
extern template class CompiledEvaluatorT<4>;

}  // namespace sbst::netlist

// Netlist-compile optimization passes (CompileOptions: const_prop,
// fuse_inverters, dead_sweep — netlist/compiled.hpp).
//
// Strategy: an unoptimized compiled netlist is bit-for-bit the reference
// structure, so the oracle for every test is the same netlist compiled with
// the passes off (or the reference Evaluator directly). Optimization must
// never change any observable value on a live net, and must never change a
// detection flag — including for faults sitting ON gates the passes folded,
// bypassed, or swept.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/compiled.hpp"
#include "netlist/eval.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/comparator.hpp"
#include "rtlgen/control.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/memctrl.hpp"
#include "rtlgen/multiplier.hpp"
#include "rtlgen/pipeline.hpp"
#include "rtlgen/regfile.hpp"
#include "rtlgen/shifter.hpp"

namespace sbst::netlist {
namespace {

using fault::CoverageResult;
using fault::Engine;
using fault::Fault;
using fault::FaultUniverse;
using fault::PatternSet;
using fault::PortValue;
using fault::SeqStimulus;
using fault::SimOptions;

/// Output nets are liveness roots, so they are observable under every
/// CompileOptions; compare nothing else (a swept gate's block is stale by
/// design).
void expect_outputs_equal(const Evaluator& oracle, const CompiledEvaluator& ev,
                          const char* label) {
  for (NetId out : oracle.netlist().output_nets()) {
    ASSERT_EQ(oracle.value(out), ev.value(out))
        << label << ": output net " << out;
  }
}

CoverageResult grade(const Netlist& nl, const std::vector<Fault>& faults,
                     const PatternSet& ps, bool netlist_opt,
                     unsigned lanes = 1, unsigned threads = 1) {
  SimOptions opt;
  opt.num_threads = threads;
  opt.engine = Engine::kEvent;
  opt.lanes = lanes;
  opt.netlist_opt = netlist_opt ? 1 : 0;
  return fault::simulate_comb_parallel(nl, faults, ps, {}, opt);
}

// ---- const_prop ------------------------------------------------------------

/// Every 2-input kind with one pin tied to each constant, plus the four
/// partially-constant MUX2 shapes.
Netlist tied_pin_netlist() {
  Netlist nl("tied_pins");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId c0 = nl.constant(false);
  const NetId c1 = nl.constant(true);
  unsigned n = 0;
  auto out = [&](NetId id) { nl.output("o" + std::to_string(n++), id); };
  out(nl.and_(a, c0));
  out(nl.and_(a, c1));
  out(nl.or_(c0, a));
  out(nl.or_(c1, a));
  out(nl.nand_(a, c0));
  out(nl.nand_(a, c1));
  out(nl.nor_(c0, a));
  out(nl.nor_(c1, a));
  out(nl.xor_(a, c0));
  out(nl.xor_(a, c1));
  out(nl.xnor_(c0, a));
  out(nl.xnor_(c1, a));
  out(nl.mux2(c0, a, b));  // select tied 0 -> d0
  out(nl.mux2(c1, a, b));  // select tied 1 -> d1
  out(nl.mux2(a, c0, b));  // d0 tied 0 -> sel & d1
  out(nl.mux2(a, c1, b));  // d0 tied 1 -> ~sel | (sel & d1) form
  out(nl.mux2(a, b, c0));  // d1 tied 0 -> ~sel & d0
  out(nl.mux2(a, b, c1));  // d1 tied 1
  out(nl.not_(nl.buf(c1)));  // constant chain folds all the way down
  return nl;
}

TEST(NetlistOpt, TiedPinConstPropMatchesReferenceExhaustively) {
  const Netlist nl = tied_pin_netlist();
  const CompiledNetlist cn(nl, CompileOptions{.const_prop = true});
  Evaluator oracle(nl);
  CompiledEvaluator full(cn);
  CompiledEvaluator event(cn);

  // Two inputs: the four lane patterns 00/01/10/11 cover every combination
  // in one 64-lane word.
  const std::uint64_t wa = 0xAAAAAAAAAAAAAAAAULL;
  const std::uint64_t wb = 0xCCCCCCCCCCCCCCCCULL;
  for (Evaluator* e : {&oracle}) {
    e->set_input_word(nl.input_port("a")[0], wa);
    e->set_input_word(nl.input_port("b")[0], wb);
  }
  for (CompiledEvaluator* e : {&full, &event}) {
    e->set_input_word(nl.input_port("a")[0], wa);
    e->set_input_word(nl.input_port("b")[0], wb);
  }
  oracle.eval();
  full.request_full_eval();
  full.eval();
  event.eval();
  // const_prop alone keeps every gate in the order, so ALL nets must match,
  // not just outputs.
  for (NetId id = 0; id < nl.size(); ++id) {
    ASSERT_EQ(oracle.value(id), full.value(id)) << "full net " << id;
    ASSERT_EQ(oracle.value(id), event.value(id)) << "event net " << id;
  }
}

TEST(NetlistOpt, FaultsOnConstFoldedGatesGradeIdentically) {
  const Netlist nl = tied_pin_netlist();
  const FaultUniverse u(nl);
  Rng rng(4242);
  PatternSet ps(nl);
  for (int i = 0; i < 32; ++i) ps.add_random(rng);

  const CoverageResult plain = grade(nl, u.collapsed(), ps, false);
  const CoverageResult opt = grade(nl, u.collapsed(), ps, true);
  EXPECT_EQ(plain.detected_flags, opt.detected_flags);
  // Sanity: the universe includes faults on tied pins and folded gates, and
  // the pattern set detects a nontrivial share of them.
  EXPECT_GT(plain.detected, 0u);
}

TEST(NetlistOpt, ConstPropKeepsObservableFallbackConesLive) {
  // A deep cone whose root is ANDed with constant 0: const_prop folds the
  // observable output to a constant, but dead_sweep must NOT reclaim the
  // feeding cone — a fault on the consumed constant re-activates the
  // original AND, whose x input must still carry a current value (the
  // fault-exactness liveness rule). The cone therefore stays live, and the
  // folded output still behaves identically on every pattern.
  Netlist nl("const_cone");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  NetId x = nl.xor_(a, b);
  for (int i = 0; i < 20; ++i) x = nl.xor_(nl.and_(x, a), b);
  nl.output("y", nl.and_(x, nl.constant(false)));
  nl.output("pass", nl.or_(a, b));  // keeps a live sliver

  const CompiledNetlist plain(nl);
  const CompiledNetlist opt(nl, CompileOptions::all());
  EXPECT_EQ(opt.live_gates(), plain.live_gates());

  // Behavior on the outputs is unchanged for random stimulus.
  Evaluator oracle(nl);
  CompiledEvaluator ev(opt);
  Rng rng(99);
  for (int iter = 0; iter < 16; ++iter) {
    for (NetId in : nl.inputs()) {
      const std::uint64_t w = rng.next64();
      oracle.set_input_word(in, w);
      ev.set_input_word(in, w);
    }
    oracle.eval();
    ev.eval();
    expect_outputs_equal(oracle, ev, "const_cone");
  }
}

// ---- dead_sweep ------------------------------------------------------------

/// A live cone feeding the declared outputs plus a parallel cone that feeds
/// nothing observable.
Netlist dead_side_cone_netlist() {
  Netlist nl("dead_side");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId c = nl.input("c");
  nl.output("y", nl.xor_(nl.and_(a, b), c));
  // Side cone: never marked as output, feeds no output.
  NetId t = nl.or_(a, c);
  for (int i = 0; i < 8; ++i) t = nl.nand_(t, b);
  (void)t;
  return nl;
}

TEST(NetlistOpt, DeadSweepDropsUnobservedGatesOnly) {
  const Netlist nl = dead_side_cone_netlist();
  const CompiledNetlist plain(nl);
  const CompiledNetlist opt(nl, CompileOptions{.dead_sweep = true});
  // 9 side-cone gates dropped, live cone intact.
  EXPECT_EQ(plain.live_gates(), nl.size());
  EXPECT_EQ(opt.live_gates() + 9, plain.live_gates());
}

TEST(NetlistOpt, FaultOnSweptGateStaysProvablyUnobservable) {
  const Netlist nl = dead_side_cone_netlist();
  const FaultUniverse u(nl);
  Rng rng(777);
  PatternSet ps(nl);
  for (int i = 0; i < 64; ++i) ps.add_random(rng);

  // The oracle for "provably unobservable": the reference engine grades
  // every side-cone fault undetected, because no observe point is in its
  // fanout. The optimized engine must agree flag-for-flag — including
  // returning a well-defined (undetected) grade for faults whose host gate
  // was swept from the evaluation order.
  const CoverageResult ref = fault::simulate_comb_parallel(
      nl, u.collapsed(), ps, {},
      {.num_threads = 1,
       .lane_parallel = false,
       .engine = Engine::kReference});
  const CoverageResult opt = grade(nl, u.collapsed(), ps, true);
  EXPECT_EQ(ref.detected_flags, opt.detected_flags);

  const std::vector<std::uint8_t> cone = CompiledNetlist(nl).fanin_cone(
      nl.output_nets());
  std::size_t swept_faults = 0;
  for (std::size_t i = 0; i < u.collapsed().size(); ++i) {
    if (cone[u.collapsed()[i].site.gate]) continue;
    ++swept_faults;
    EXPECT_EQ(opt.detected_flags[i], 0) << "swept-gate fault " << i;
  }
  EXPECT_GT(swept_faults, 0u);
}

// ---- fuse_inverters --------------------------------------------------------

/// Inverter/buffer chains of every parity feeding every consumer kind, with
/// fanout taps into the middle of the chains.
Netlist inverter_chain_netlist() {
  Netlist nl("inv_chains");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId n1 = nl.not_(a);            // parity 1
  const NetId n2 = nl.not_(n1);           // parity 0
  const NetId n3 = nl.buf(n2);            // parity 0, buf link
  const NetId n4 = nl.not_(n3);           // parity 1
  const NetId m1 = nl.buf(b);
  const NetId m2 = nl.not_(m1);
  unsigned n = 0;
  auto out = [&](NetId id) { nl.output("o" + std::to_string(n++), id); };
  out(nl.and_(n4, m2));
  out(nl.or_(n1, m1));
  out(nl.nand_(n2, b));
  out(nl.nor_(n3, m2));
  out(nl.xor_(n4, m1));
  out(nl.xnor_(n1, n2));  // same chain twice, opposite parity
  out(nl.mux2(n1, m2, n4));
  out(nl.not_(n4));  // chain extended by the consumer itself
  out(n2);           // mid-chain tap is itself an output
  return nl;
}

TEST(NetlistOpt, InverterFusionMatchesReferenceOnAllMasks) {
  const Netlist nl = inverter_chain_netlist();
  const CompiledNetlist cn(nl, CompileOptions{.fuse_inverters = true});
  Evaluator oracle(nl);
  CompiledEvaluator full(cn);
  CompiledEvaluator event(cn);

  Rng rng(31337);
  const std::uint64_t masks[] = {
      1u,
      ~std::uint64_t{0},
      0xAAAAAAAAAAAAAAAAULL,
      0x8000000000000001ULL,
      rng.next64() | 1u,
  };
  for (Evaluator* e : {&oracle}) {
    e->set_input_word(nl.input_port("a")[0], 0xF0F0F0F0F0F0F0F0ULL);
    e->set_input_word(nl.input_port("b")[0], 0xFF00FF00FF00FF00ULL);
  }
  for (CompiledEvaluator* e : {&full, &event}) {
    e->set_input_word(nl.input_port("a")[0], 0xF0F0F0F0F0F0F0F0ULL);
    e->set_input_word(nl.input_port("b")[0], 0xFF00FF00FF00FF00ULL);
  }
  oracle.eval();
  full.request_full_eval();
  full.eval();
  event.eval();
  for (NetId id = 0; id < nl.size(); ++id) {
    ASSERT_EQ(oracle.value(id), full.value(id)) << "pristine net " << id;
    ASSERT_EQ(oracle.value(id), event.value(id)) << "pristine net " << id;
  }

  // Single stuck-at faults on every site of every gate — chain gates whose
  // consumers were retargeted included — under every lane mask. The inject
  // remap must reproduce the reference value on every net (fusion keeps all
  // gates in the order, so all nets stay comparable).
  for (NetId g = 0; g < nl.size(); ++g) {
    const unsigned pins = fanin_count(nl.gate(g).kind);
    std::vector<std::uint8_t> sites{Site::kOutputPin};
    for (unsigned p = 0; p < pins; ++p) sites.push_back(std::uint8_t(p));
    for (std::uint8_t pin : sites) {
      for (std::uint64_t mask : masks) {
        for (bool sv : {false, true}) {
          const Site site{g, pin};
          oracle.inject(site, sv, mask);
          full.inject(site, sv, mask);
          event.inject(site, sv, mask);
          oracle.eval();
          full.request_full_eval();
          full.eval();
          event.eval();
          for (NetId id = 0; id < nl.size(); ++id) {
            ASSERT_EQ(oracle.value(id), full.value(id))
                << "full g" << g << " pin " << int(pin) << " net " << id;
            ASSERT_EQ(oracle.value(id), event.value(id))
                << "event g" << g << " pin " << int(pin) << " net " << id;
          }
          oracle.clear_faults();
          full.clear_faults();
          event.clear_faults();
        }
      }
    }
  }
}

TEST(NetlistOpt, DffDPinsAreNeverFused) {
  // A NOT chain feeding a DFF's D input: fusing it would break the
  // reference quirk that D pins ignore pin forces, so the compiler must
  // leave the D edge alone.
  Netlist nl("dff_chain");
  const NetId a = nl.input("a");
  const NetId q = nl.dff("q");
  nl.connect_dff(q, nl.not_(nl.not_(nl.not_(a))));
  nl.output("y", nl.xor_(q, a));

  Evaluator oracle(nl);
  const CompiledNetlist cn(nl, CompileOptions::all());
  CompiledEvaluator ev(cn);
  Rng rng(55);
  for (int cycle = 0; cycle < 12; ++cycle) {
    const std::uint64_t w = rng.next64();
    oracle.set_input_word(a, w);
    ev.set_input_word(a, w);
    if (cycle == 4) {
      // Pin force on D: both engines must latch the UNforced driven value.
      oracle.inject({q, 0}, true, ~std::uint64_t{0});
      ev.inject({q, 0}, true, ~std::uint64_t{0});
    }
    if (cycle == 6) {
      oracle.clear_faults();
      ev.clear_faults();
    }
    oracle.step();
    ev.step();
    expect_outputs_equal(oracle, ev, "dff_chain");
    ASSERT_EQ(oracle.value(q), ev.value(q));
  }
}

// ---- randomized fuzz -------------------------------------------------------

Netlist random_comb_netlist(Rng& rng, unsigned n_inputs, unsigned n_gates) {
  Netlist nl("random_comb");
  std::vector<NetId> nets;
  for (unsigned i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  // Seed constants so const_prop has material to fold.
  nets.push_back(nl.constant(false));
  nets.push_back(nl.constant(true));
  auto pick = [&] { return nets[rng.below(nets.size())]; };
  for (unsigned g = 0; g < n_gates; ++g) {
    NetId n;
    switch (rng.below(11)) {
      case 0: n = nl.buf(pick()); break;
      case 1:
      case 2: n = nl.not_(pick()); break;  // extra inverters to fuse
      case 3: n = nl.and_(pick(), pick()); break;
      case 4: n = nl.or_(pick(), pick()); break;
      case 5: n = nl.nand_(pick(), pick()); break;
      case 6: n = nl.nor_(pick(), pick()); break;
      case 7: n = nl.xor_(pick(), pick()); break;
      case 8: n = nl.xnor_(pick(), pick()); break;
      default: n = nl.mux2(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  unsigned n_outputs = 0;
  for (std::size_t i = n_inputs; i < nets.size(); ++i) {
    // Leave a healthy share unobserved so dead_sweep has work.
    if (i + 3 >= nets.size() || rng.chance(0.07)) {
      nl.output("o" + std::to_string(n_outputs++), nets[i]);
    }
  }
  return nl;
}

TEST(NetlistOpt, FuzzRandomNetlistsOptimizedVsUnoptimized) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    Rng rng(seed * 97 + 3);
    const Netlist nl = random_comb_netlist(rng, 4 + rng.below(6),
                                           50 + rng.below(120));
    SCOPED_TRACE("seed " + std::to_string(seed));
    Evaluator oracle(nl);
    const CompiledNetlist cn(nl, CompileOptions::all());
    CompiledEvaluator full(cn);
    CompiledEvaluator event(cn);
    const FaultUniverse u(nl);
    const std::vector<Fault>& faults = u.collapsed();

    for (int op = 0; op < 120; ++op) {
      // New stimulus.
      for (NetId in : nl.inputs()) {
        const std::uint64_t w = rng.next64();
        oracle.set_input_word(in, w);
        full.set_input_word(in, w);
        event.set_input_word(in, w);
      }
      oracle.eval();
      full.request_full_eval();
      full.eval();
      event.eval();
      expect_outputs_equal(oracle, full, "fuzz pristine/full");
      expect_outputs_equal(oracle, event, "fuzz pristine/event");
      if (faults.empty()) continue;
      // One collapsed fault at a time (the simulator contract the
      // optimized equivalence is specified for).
      const Fault& f = faults[rng.below(faults.size())];
      const std::uint64_t mask = rng.next64() | 1u;
      oracle.inject(f.site, f.stuck_value, mask);
      full.inject(f.site, f.stuck_value, mask);
      event.inject(f.site, f.stuck_value, mask);
      oracle.eval();
      full.request_full_eval();
      full.eval();
      event.eval();
      expect_outputs_equal(oracle, full, "fuzz fault/full");
      expect_outputs_equal(oracle, event, "fuzz fault/event");
      oracle.clear_faults();
      full.clear_faults();
      event.clear_faults();
    }
  }
}

TEST(NetlistOpt, FuzzGradingFlagsIdenticalOnRandomNetlists) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    Rng rng(seed);
    const Netlist nl = random_comb_netlist(rng, 6, 80 + rng.below(80));
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FaultUniverse u(nl);
    PatternSet ps(nl);
    for (int i = 0; i < 96; ++i) ps.add_random(rng);
    const CoverageResult plain = grade(nl, u.collapsed(), ps, false);
    for (unsigned lanes : {1u, 4u}) {
      const CoverageResult opt = grade(nl, u.collapsed(), ps, true, lanes);
      EXPECT_EQ(plain.detected_flags, opt.detected_flags)
          << "lanes " << lanes;
    }
  }
}

// ---- every rtlgen component ------------------------------------------------

void grade_component_both_ways(const Netlist& nl, std::uint64_t seed) {
  SCOPED_TRACE(nl.name());
  const FaultUniverse u(nl);
  Rng rng(seed);
  if (nl.is_combinational()) {
    PatternSet ps(nl);
    for (int i = 0; i < 96; ++i) ps.add_random(rng);
    const CoverageResult plain = grade(nl, u.collapsed(), ps, false);
    const CoverageResult opt = grade(nl, u.collapsed(), ps, true);
    EXPECT_EQ(plain.detected_flags, opt.detected_flags);
  } else {
    SeqStimulus st(nl);
    for (int c = 0; c < 40; ++c) {
      std::vector<PortValue> values;
      for (const Port& p : nl.input_ports()) {
        values.emplace_back(p.name, rng.next64());
      }
      st.add_cycle(values, rng.chance(0.7));
    }
    SimOptions plain_opt;
    plain_opt.num_threads = 1;
    plain_opt.engine = Engine::kEvent;
    plain_opt.netlist_opt = 0;
    SimOptions opt_opt = plain_opt;
    opt_opt.netlist_opt = 1;
    const CoverageResult plain = fault::simulate_seq_parallel(
        nl, u.collapsed(), st, {}, plain_opt);
    const CoverageResult opt = fault::simulate_seq_parallel(
        nl, u.collapsed(), st, {}, opt_opt);
    EXPECT_EQ(plain.detected_flags, opt.detected_flags);
  }
}

TEST(NetlistOpt, RtlgenCombComponentsGradeIdentically) {
  grade_component_both_ways(rtlgen::build_alu({.width = 8}), 700);
  grade_component_both_ways(rtlgen::build_shifter({.width = 8}), 701);
  grade_component_both_ways(rtlgen::build_multiplier({.width = 8}), 702);
  grade_component_both_ways(rtlgen::build_comparator({.width = 8}), 703);
  grade_component_both_ways(rtlgen::build_control(), 704);
  grade_component_both_ways(rtlgen::build_forwarding_unit(), 705);
}

TEST(NetlistOpt, RtlgenSeqComponentsGradeIdentically) {
  grade_component_both_ways(rtlgen::build_pipe_reg({.width = 8}), 710);
  grade_component_both_ways(rtlgen::build_divider({.width = 8}), 711);
  grade_component_both_ways(rtlgen::build_regfile({.num_regs = 8, .width = 8}),
                            712);
  grade_component_both_ways(rtlgen::build_memctrl(), 713);
}

TEST(NetlistOpt, OptimizationShrinksRtlgenComponents) {
  // The passes must actually bite on real components, not just be safe.
  std::size_t total_plain = 0, total_opt = 0;
  for (const Netlist& nl :
       {rtlgen::build_alu({.width = 16}), rtlgen::build_control(),
        rtlgen::build_memctrl()}) {
    total_plain += CompiledNetlist(nl).live_gates();
    total_opt += CompiledNetlist(nl, CompileOptions::all()).live_gates();
  }
  EXPECT_LT(total_opt, total_plain);
}

}  // namespace
}  // namespace sbst::netlist

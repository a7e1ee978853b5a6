// Differential tests for the compiled levelized evaluator (CompiledNetlist /
// CompiledEvaluator, netlist/compiled.hpp) against the reference Evaluator,
// and for the engine-selection layer routing the fault simulators through it.
//
// Strategy: the reference Evaluator is the oracle; every test drives both
// evaluators through identical call sequences and demands bitwise-identical
// words on every net, both for a compiled twin that sweeps on every eval()
// (request_full_eval() first) and for the event-driven one.
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

// ---- helpers ---------------------------------------------------------------

/// Compares every net's 64-lane word between the oracle and a compiled
/// evaluator (values_ is the complete observable state after eval()).
void expect_all_nets_equal(const Evaluator& oracle, const CompiledEvaluator& ev,
                           const char* label) {
  const Netlist& nl = oracle.netlist();
  for (NetId id = 0; id < nl.size(); ++id) {
    ASSERT_EQ(oracle.value(id), ev.value(id))
        << label << ": net " << id << " (" << kind_name(nl.gate(id).kind)
        << ")";
  }
}

/// Netlist exercising every GateKind, with reconvergent fanout so stem and
/// branch faults behave differently.
Netlist every_kind_netlist() {
  Netlist nl("every_kind");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId c = nl.input("c");
  const NetId c0 = nl.constant(false);
  const NetId c1 = nl.constant(true);
  const NetId q = nl.dff("q");
  const NetId n_buf = nl.buf(a);
  const NetId n_not = nl.not_(b);
  const NetId n_and = nl.and_(n_buf, n_not);
  const NetId n_or = nl.or_(n_and, c);
  const NetId n_nand = nl.nand_(n_or, a);
  const NetId n_nor = nl.nor_(n_nand, c0);
  const NetId n_xor = nl.xor_(n_nor, q);
  const NetId n_xnor = nl.xnor_(n_xor, c1);
  const NetId n_mux = nl.mux2(c, n_xnor, n_and);
  nl.connect_dff(q, n_mux);
  nl.output("y", n_mux);
  nl.output("z", n_xor);
  return nl;
}

// Reuse the seeded random generators proven in test_fault_parallel.cpp.
Netlist random_comb_netlist(Rng& rng, unsigned n_inputs, unsigned n_gates) {
  Netlist nl("random_comb");
  std::vector<NetId> nets;
  for (unsigned i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  auto pick = [&] { return nets[rng.below(nets.size())]; };
  for (unsigned g = 0; g < n_gates; ++g) {
    NetId n;
    switch (rng.below(9)) {
      case 0: n = nl.buf(pick()); break;
      case 1: n = nl.not_(pick()); break;
      case 2: n = nl.and_(pick(), pick()); break;
      case 3: n = nl.or_(pick(), pick()); break;
      case 4: n = nl.nand_(pick(), pick()); break;
      case 5: n = nl.nor_(pick(), pick()); break;
      case 6: n = nl.xor_(pick(), pick()); break;
      case 7: n = nl.xnor_(pick(), pick()); break;
      default: n = nl.mux2(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  unsigned n_outputs = 0;
  for (std::size_t i = n_inputs; i < nets.size(); ++i) {
    if (i + 3 >= nets.size() || rng.chance(0.1)) {
      nl.output("o" + std::to_string(n_outputs++), nets[i]);
    }
  }
  return nl;
}

Netlist random_seq_netlist(Rng& rng, unsigned n_inputs, unsigned n_dffs,
                           unsigned n_gates) {
  Netlist nl("random_seq");
  std::vector<NetId> nets;
  for (unsigned i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  std::vector<NetId> qs;
  for (unsigned i = 0; i < n_dffs; ++i) {
    const NetId q = nl.dff("q" + std::to_string(i));
    qs.push_back(q);
    nets.push_back(q);
  }
  auto pick = [&] { return nets[rng.below(nets.size())]; };
  for (unsigned g = 0; g < n_gates; ++g) {
    NetId n;
    switch (rng.below(7)) {
      case 0: n = nl.not_(pick()); break;
      case 1: n = nl.and_(pick(), pick()); break;
      case 2: n = nl.or_(pick(), pick()); break;
      case 3: n = nl.nand_(pick(), pick()); break;
      case 4: n = nl.xor_(pick(), pick()); break;
      case 5: n = nl.nor_(pick(), pick()); break;
      default: n = nl.mux2(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  for (NetId q : qs) nl.connect_dff(q, pick());
  unsigned n_outputs = 0;
  for (std::size_t i = n_inputs + n_dffs; i < nets.size(); ++i) {
    if (i + 3 >= nets.size() || rng.chance(0.15)) {
      nl.output("o" + std::to_string(n_outputs++), nets[i]);
    }
  }
  return nl;
}

void randomize_inputs(Rng& rng, Evaluator& oracle, CompiledEvaluator& full,
                      CompiledEvaluator& event) {
  for (NetId in : oracle.netlist().inputs()) {
    const std::uint64_t w = rng.next64();
    oracle.set_input_word(in, w);
    full.set_input_word(in, w);
    event.set_input_word(in, w);
  }
}

// ---- compilation structure -------------------------------------------------

TEST(CompiledNetlist, LevelsAndFaninCone) {
  Netlist nl("cone");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId x = nl.and_(a, b);    // level 1
  const NetId y = nl.not_(x);       // level 2
  const NetId z = nl.or_(a, a);     // level 1, NOT in y's cone
  nl.output("y", y);
  nl.output("z", z);

  const CompiledNetlist cn(nl);
  EXPECT_EQ(cn.size(), nl.size());
  EXPECT_EQ(cn.levels(), 3u);  // inputs at 0, {x,z} at 1, y at 2

  const std::vector<std::uint8_t> cone = cn.fanin_cone({y});
  EXPECT_TRUE(cone[y]);
  EXPECT_TRUE(cone[x]);
  EXPECT_TRUE(cone[a]);
  EXPECT_TRUE(cone[b]);
  EXPECT_FALSE(cone[z]);

  const std::vector<std::uint8_t> zcone = cn.fanin_cone({z});
  EXPECT_TRUE(zcone[a]);
  EXPECT_FALSE(zcone[b]);
  EXPECT_FALSE(zcone[x]);
}

TEST(CompiledNetlist, FaninConeFollowsDffDEdges) {
  Netlist nl("seq_cone");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId q = nl.dff("q");
  nl.connect_dff(q, nl.and_(a, b));
  const NetId y = nl.not_(q);
  nl.output("y", y);

  const CompiledNetlist cn(nl);
  const std::vector<std::uint8_t> cone = cn.fanin_cone({y});
  // The cone must cross the flip-flop: a fault on `a` is observable at y one
  // cycle later.
  EXPECT_TRUE(cone[a]);
  EXPECT_TRUE(cone[b]);
  EXPECT_TRUE(cone[q]);
}

// ---- gate semantics --------------------------------------------------------

TEST(CompiledEval, EveryGateKindMatchesReference) {
  const Netlist nl = every_kind_netlist();
  Evaluator oracle(nl);
  CompiledEvaluator full(nl);
  CompiledEvaluator event(nl);

  Rng rng(404);
  for (int iter = 0; iter < 50; ++iter) {
    randomize_inputs(rng, oracle, full, event);
    if (iter % 7 == 0) {
      oracle.reset_state(iter % 14 == 0);
      full.reset_state(iter % 14 == 0);
      event.reset_state(iter % 14 == 0);
    }
    oracle.step();
    full.request_full_eval();
    full.step();
    event.step();
    expect_all_nets_equal(oracle, full, "full");
    expect_all_nets_equal(oracle, event, "event");
  }
}

TEST(CompiledEval, StemAndBranchForcesOnAllSitesAndLaneMasks) {
  const Netlist nl = every_kind_netlist();
  Evaluator oracle(nl);
  CompiledEvaluator full(nl);
  CompiledEvaluator event(nl);

  Rng rng(405);
  const std::uint64_t masks[] = {
      1u,
      ~std::uint64_t{0},
      0xAAAAAAAAAAAAAAAAULL,
      0x8000000000000001ULL,
      rng.next64(),
  };
  randomize_inputs(rng, oracle, full, event);
  oracle.eval();
  full.request_full_eval();
  full.eval();
  event.eval();

  for (NetId g = 0; g < nl.size(); ++g) {
    const unsigned pins = fanin_count(nl.gate(g).kind);
    // Output (stem) site plus every input pin (branch) site.
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
          expect_all_nets_equal(oracle, full, "forced/full");
          expect_all_nets_equal(oracle, event, "forced/event");
          oracle.clear_faults();
          full.clear_faults();
          event.clear_faults();
          oracle.eval();
          full.request_full_eval();
          full.eval();
          event.eval();
          expect_all_nets_equal(oracle, full, "cleared/full");
          expect_all_nets_equal(oracle, event, "cleared/event");
        }
      }
    }
  }
}

TEST(CompiledEval, DffIgnoresPinForceOnDInputLikeReference) {
  // The reference evaluator never applies pin forces to a DFF's D input
  // (step() reads the raw driven value); the compiled engine must replicate
  // that quirk, not "fix" it.
  Netlist nl("dff_quirk");
  const NetId a = nl.input("a");
  const NetId q = nl.dff("q");
  nl.connect_dff(q, a);
  nl.output("y", nl.not_(q));

  Evaluator oracle(nl);
  CompiledEvaluator event(nl);

  for (bool sv : {false, true}) {
    oracle.set_input(a, !sv);
    event.set_input(a, !sv);
    const Site d_pin{q, 0};
    oracle.inject(d_pin, sv, ~std::uint64_t{0});
    event.inject(d_pin, sv, ~std::uint64_t{0});
    oracle.step();
    event.step();
    expect_all_nets_equal(oracle, event, "dff d-pin force");
    // Re-evaluate so values_ reflects the newly latched state: both must
    // have latched the UNforced driven value.
    oracle.eval();
    event.eval();
    expect_all_nets_equal(oracle, event, "dff d-pin force post-latch");
    EXPECT_EQ(oracle.value(q), sv ? 0 : ~std::uint64_t{0});
    oracle.clear_faults();
    event.clear_faults();
  }
}

TEST(CompiledEval, StepAndResetStateMatchReference) {
  Rng rng(406);
  const Netlist nl = random_seq_netlist(rng, 5, 6, 60);
  Evaluator oracle(nl);
  CompiledEvaluator full(nl);
  CompiledEvaluator event(nl);

  for (bool init : {false, true}) {
    oracle.reset_state(init);
    full.reset_state(init);
    event.reset_state(init);
    for (int cycle = 0; cycle < 30; ++cycle) {
      randomize_inputs(rng, oracle, full, event);
      oracle.step();
      full.request_full_eval();
      full.step();
      event.step();
      expect_all_nets_equal(oracle, full, "seq/full");
      expect_all_nets_equal(oracle, event, "seq/event");
    }
  }
}

// ---- randomized operation-sequence fuzzing ---------------------------------

TEST(CompiledEval, RandomizedCombOperationSequences) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed * 31 + 7);
    const Netlist nl = random_comb_netlist(rng, 5 + rng.below(5),
                                           40 + rng.below(60));
    Evaluator oracle(nl);
    CompiledEvaluator full(nl);
    CompiledEvaluator event(nl);

    for (int op = 0; op < 200; ++op) {
      switch (rng.below(4)) {
        case 0: {  // new stimulus
          randomize_inputs(rng, oracle, full, event);
          break;
        }
        case 1: {  // inject a random fault (possibly stacking several)
          const NetId g = NetId(rng.below(nl.size()));
          const unsigned pins = fanin_count(nl.gate(g).kind);
          const std::uint8_t pin =
              (pins == 0 || rng.chance(0.5))
                  ? Site::kOutputPin
                  : std::uint8_t(rng.below(pins));
          const bool sv = rng.chance(0.5);
          const std::uint64_t mask = rng.next64() | 1u;
          oracle.inject({g, pin}, sv, mask);
          full.inject({g, pin}, sv, mask);
          event.inject({g, pin}, sv, mask);
          break;
        }
        case 2: {
          oracle.clear_faults();
          full.clear_faults();
          event.clear_faults();
          break;
        }
        default: {
          oracle.eval();
          full.request_full_eval();
          full.eval();
          event.eval();
          expect_all_nets_equal(oracle, full, "fuzz/full");
          expect_all_nets_equal(oracle, event, "fuzz/event");
          break;
        }
      }
    }
  }
}

TEST(CompiledEval, RandomizedSeqOperationSequences) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    const Netlist nl = random_seq_netlist(rng, 4 + rng.below(4),
                                          3 + rng.below(4), 35 + rng.below(40));
    Evaluator oracle(nl);
    CompiledEvaluator full(nl);
    CompiledEvaluator event(nl);

    for (int op = 0; op < 150; ++op) {
      switch (rng.below(6)) {
        case 0: {
          randomize_inputs(rng, oracle, full, event);
          break;
        }
        case 1: {
          const NetId g = NetId(rng.below(nl.size()));
          const unsigned pins = fanin_count(nl.gate(g).kind);
          const std::uint8_t pin =
              (pins == 0 || rng.chance(0.5))
                  ? Site::kOutputPin
                  : std::uint8_t(rng.below(pins));
          const bool sv = rng.chance(0.5);
          const std::uint64_t mask = rng.next64() | 2u;
          oracle.inject({g, pin}, sv, mask);
          full.inject({g, pin}, sv, mask);
          event.inject({g, pin}, sv, mask);
          break;
        }
        case 2: {
          oracle.clear_faults();
          full.clear_faults();
          event.clear_faults();
          break;
        }
        case 3: {
          const bool v = rng.chance(0.5);
          oracle.reset_state(v);
          full.reset_state(v);
          event.reset_state(v);
          break;
        }
        case 4: {
          oracle.step();
          full.request_full_eval();
          full.step();
          event.step();
          expect_all_nets_equal(oracle, full, "seqfuzz/full");
          expect_all_nets_equal(oracle, event, "seqfuzz/event");
          break;
        }
        default: {
          oracle.eval();
          full.request_full_eval();
          full.eval();
          event.eval();
          expect_all_nets_equal(oracle, full, "seqfuzz/full");
          expect_all_nets_equal(oracle, event, "seqfuzz/event");
          break;
        }
      }
    }
  }
}

// ---- event vs full equivalence on every rtlgen component -------------------

void exercise_component(const Netlist& nl, std::uint64_t seed) {
  SCOPED_TRACE(nl.name());
  Evaluator oracle(nl);
  const CompiledNetlist cn(nl);
  CompiledEvaluator full(cn);
  CompiledEvaluator event(cn);
  Rng rng(seed);

  FaultUniverse universe(nl);
  const std::vector<Fault>& faults = universe.collapsed();

  for (int iter = 0; iter < 12; ++iter) {
    randomize_inputs(rng, oracle, full, event);
    if (nl.is_combinational()) {
      oracle.eval();
      full.request_full_eval();
      full.eval();
      event.eval();
    } else {
      oracle.step();
      full.request_full_eval();
      full.step();
      event.step();
    }
    expect_all_nets_equal(oracle, full, "component/full");
    expect_all_nets_equal(oracle, event, "component/event");

    // Inject a few real (collapsed) faults, eval, compare, clear.
    for (int k = 0; k < 4 && !faults.empty(); ++k) {
      const Fault& f = faults[rng.below(faults.size())];
      const std::uint64_t mask = rng.next64() | 1u;
      oracle.inject(f.site, f.stuck_value, mask);
      full.inject(f.site, f.stuck_value, mask);
      event.inject(f.site, f.stuck_value, mask);
      oracle.eval();
      full.request_full_eval();
      full.eval();
      event.eval();
      expect_all_nets_equal(oracle, full, "component-fault/full");
      expect_all_nets_equal(oracle, event, "component-fault/event");
      oracle.clear_faults();
      full.clear_faults();
      event.clear_faults();
    }
  }
}

TEST(CompiledEval, RtlgenCombComponents) {
  exercise_component(rtlgen::build_alu({.width = 8}), 900);
  exercise_component(rtlgen::build_shifter({.width = 8}), 901);
  exercise_component(rtlgen::build_multiplier({.width = 8}), 902);
  exercise_component(rtlgen::build_comparator({.width = 8}), 903);
  exercise_component(rtlgen::build_control(), 904);
  exercise_component(rtlgen::build_forwarding_unit(), 905);
}

TEST(CompiledEval, RtlgenSeqComponents) {
  exercise_component(rtlgen::build_pipe_reg({.width = 8}), 910);
  exercise_component(rtlgen::build_divider({.width = 8}), 911);
  exercise_component(rtlgen::build_regfile({.num_regs = 8, .width = 8}), 912);
  exercise_component(rtlgen::build_memctrl(), 913);
}

// ---- word-level set_bus ------------------------------------------------------

// set_bus drives a whole bus in one loop; it must leave exactly the state
// per-bit set_input calls leave. Two twins run one call sequence, one
// driving through set_bus, the other bit by bit, and must agree on every net
// after every evaluation: with the stimulus set under a pending full sweep
// and in event mode, and under armed forces, where a stimulus change must
// invalidate the undo log so that clear_faults() re-propagates instead of
// replaying blocks recorded against the old stimulus.
template <unsigned W>
void expect_set_bus_matches_set_input(std::uint64_t seed) {
  const Netlist nl = rtlgen::build_alu();
  const CompiledNetlist cn(nl, CompileOptions::all());
  const std::vector<const Bus*> buses = {
      &nl.input_port("a"), &nl.input_port("b"), &nl.input_port("op")};
  const std::vector<Fault> faults = FaultUniverse(nl).collapsed();
  CompiledEvaluatorT<W> by_bus(cn);
  CompiledEvaluatorT<W> by_bit(cn);
  Rng rng(seed);
  const auto drive = [&] {
    for (const Bus* bus : buses) {
      // Often leave a bus unchanged, so set_bus also meets no-op writes.
      if (rng.chance(0.25)) continue;
      const std::uint64_t v = rng.next64();
      by_bus.set_bus(*bus, v);
      for (std::size_t i = 0; i < bus->size(); ++i) {
        by_bit.set_input((*bus)[i], (v >> i) & 1u);
      }
    }
  };
  const auto eval_and_compare = [&](const std::string& label) {
    by_bus.eval();
    by_bit.eval();
    for (NetId id = 0; id < nl.size(); ++id) {
      for (unsigned w = 0; w < W; ++w) {
        ASSERT_EQ(by_bus.value_word(id, w), by_bit.value_word(id, w))
            << "W=" << W << " " << label << ": net " << id;
      }
    }
  };
  for (int round = 0; round < 24; ++round) {
    const std::string at = "round " + std::to_string(round);
    const bool full = round % 2 == 0;
    if (full) {
      by_bus.request_full_eval();
      by_bit.request_full_eval();
    }
    drive();
    eval_and_compare(at + (full ? " full sweep" : " event"));
    const Fault& f = faults[rng.below(faults.size())];
    by_bus.inject_broadcast(f.site, f.stuck_value);
    by_bit.inject_broadcast(f.site, f.stuck_value);
    eval_and_compare(at + " forced");
    drive();
    eval_and_compare(at + " forced, new stimulus");
    by_bus.clear_faults();
    by_bit.clear_faults();
    eval_and_compare(at + " cleared");
  }
}

TEST(CompiledEval, SetBusMatchesPerBitSetInput) {
  expect_set_bus_matches_set_input<1>(1301);
  expect_set_bus_matches_set_input<4>(1302);
}

// ---- instrumentation -------------------------------------------------------

TEST(CompiledEval, EventEvalVisitsOnlyTheFanoutCone) {
  // A wide, flat netlist: 1 shared input + many independent 2-gate chains.
  Netlist nl("wide");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  for (int i = 0; i < 100; ++i) {
    nl.output("o" + std::to_string(i), nl.not_(nl.and_(a, b)));
  }
  const NetId lone = nl.xor_(a, b);
  nl.output("lone", lone);

  CompiledEvaluator ev(nl);
  ev.set_input(a, true);
  ev.set_input(b, false);
  ev.eval();  // first eval is a full sweep
  ev.reset_stats();

  // A stem fault on the lone XOR touches exactly: the XOR itself. No chain
  // gate feeds from it, so the event pass must not visit the 200 chain gates.
  ev.inject({lone, Site::kOutputPin}, true, ~std::uint64_t{0});
  ev.eval();
  EXPECT_GE(ev.gate_evals(), 1u);
  EXPECT_LE(ev.gate_evals(), 3u);  // xor + (nothing downstream)
  ev.clear_faults();
}

TEST(CompiledEval, FullEvalCountsWholeSweep) {
  Rng rng(77);
  const Netlist nl = random_comb_netlist(rng, 4, 30);
  CompiledEvaluator ev(nl);
  ev.eval();  // the first eval is a full sweep
  EXPECT_EQ(ev.gate_evals(), nl.size());
  ev.request_full_eval();
  ev.eval();
  EXPECT_EQ(ev.gate_evals(), 2 * nl.size());
}

// ---- engine-selection layer ------------------------------------------------

TEST(EngineSelect, Names) {
  EXPECT_STREQ(fault::engine_name(Engine::kEvent), "event");
  EXPECT_STREQ(fault::engine_name(Engine::kReference), "reference");
}

TEST(EngineSelect, SerialAndCombSimulatorsIdenticalAcrossEngines) {
  for (std::uint64_t seed : {61u, 62u}) {
    Rng rng(seed);
    const Netlist nl = random_comb_netlist(rng, 7, 90);
    FaultUniverse u(nl);
    PatternSet ps(nl);
    for (int i = 0; i < 100; ++i) ps.add_random(rng);

    const CoverageResult oracle =
        fault::simulate_serial(nl, u.collapsed(), ps, {}, Engine::kReference);
    for (unsigned lanes : {1u, 4u}) {
      EXPECT_EQ(oracle.detected_flags,
                fault::simulate_serial(nl, u.collapsed(), ps, {},
                                       Engine::kEvent, lanes)
                    .detected_flags)
          << "serial/l" << lanes;
      EXPECT_EQ(oracle.detected_flags,
                fault::simulate_comb_parallel(nl, u.collapsed(), ps, {},
                                              {.num_threads = 1,
                                               .lane_parallel = false,
                                               .engine = Engine::kEvent,
                                               .lanes = lanes})
                    .detected_flags)
          << "comb/l" << lanes;
    }
  }
}

TEST(EngineSelect, SeqSimulatorIdenticalAcrossEngines) {
  Rng rng(63);
  const Netlist nl = random_seq_netlist(rng, 5, 4, 50);
  FaultUniverse u(nl);
  SeqStimulus st(nl);
  for (int c = 0; c < 40; ++c) {
    std::vector<PortValue> values;
    for (const Port& p : nl.input_ports()) {
      values.emplace_back(p.name, rng.next64());
    }
    st.add_cycle(values, rng.chance(0.7));
  }
  const CoverageResult oracle =
      fault::simulate_serial(nl, u.collapsed(), st);
  EXPECT_EQ(oracle.detected_flags,
            fault::simulate_seq_parallel(
                nl, u.collapsed(), st, {},
                {.num_threads = 1, .engine = Engine::kReference})
                .detected_flags);
  for (unsigned lanes : {1u, 4u}) {
    EXPECT_EQ(oracle.detected_flags,
              fault::simulate_seq_parallel(
                  nl, u.collapsed(), st, {},
                  {.num_threads = 1, .engine = Engine::kEvent, .lanes = lanes})
                  .detected_flags)
        << "l" << lanes;
  }
}

TEST(EngineSelect, ParallelIdenticalAcrossEnginesThreadsAndLanes) {
  Rng rng(64);
  const Netlist nl = random_comb_netlist(rng, 8, 150);
  FaultUniverse u(nl);
  PatternSet ps(nl);
  for (int i = 0; i < 130; ++i) ps.add_random(rng);

  const CoverageResult oracle =
      fault::simulate_serial(nl, u.collapsed(), ps, {}, Engine::kReference);
  for (Engine e : {Engine::kReference, Engine::kEvent}) {
    for (unsigned threads : {1u, 2u, 4u}) {
      for (bool lanes : {false, true}) {
        SimOptions opt;
        opt.num_threads = threads;
        opt.lane_parallel = lanes;
        opt.engine = e;
        const CoverageResult got =
            fault::simulate_comb_parallel(nl, u.collapsed(), ps, {}, opt);
        EXPECT_EQ(oracle.detected_flags, got.detected_flags)
            << fault::engine_name(e) << "/" << threads << "t/"
            << (lanes ? "lanes" : "blocks");
      }
    }
  }
}

TEST(EngineSelect, ParallelSeqIdenticalAcrossEnginesAndThreads) {
  Rng rng(65);
  const Netlist nl = random_seq_netlist(rng, 5, 5, 60);
  FaultUniverse u(nl);
  SeqStimulus st(nl);
  for (int c = 0; c < 35; ++c) {
    std::vector<PortValue> values;
    for (const Port& p : nl.input_ports()) {
      values.emplace_back(p.name, rng.next64());
    }
    st.add_cycle(values, rng.chance(0.7));
  }
  const CoverageResult oracle =
      fault::simulate_serial(nl, u.collapsed(), st);
  for (Engine e : {Engine::kReference, Engine::kEvent}) {
    for (unsigned threads : {1u, 3u}) {
      SimOptions opt;
      opt.num_threads = threads;
      opt.engine = e;
      const CoverageResult got =
          fault::simulate_seq_parallel(nl, u.collapsed(), st, {}, opt);
      EXPECT_EQ(oracle.detected_flags, got.detected_flags)
          << fault::engine_name(e) << "/" << threads << "t";
    }
  }
}

TEST(EngineSelect, RestrictedObserveSetExercisesConePrefilter) {
  // With a narrow observe set many fault cones miss it; the prefilter must
  // skip them without changing any flag.
  Rng rng(66);
  const Netlist nl = random_comb_netlist(rng, 7, 120);
  FaultUniverse u(nl);
  PatternSet ps(nl);
  for (int i = 0; i < 80; ++i) ps.add_random(rng);
  const std::vector<NetId> outs = nl.output_nets();
  ASSERT_GE(outs.size(), 2u);
  const std::vector<NetId> narrow{outs.front()};

  const CoverageResult oracle = fault::simulate_serial(nl, u.collapsed(), ps,
                                                       narrow,
                                                       Engine::kReference);
  for (unsigned lanes : {1u, 4u}) {
    EXPECT_EQ(oracle.detected_flags,
              fault::simulate_comb_parallel(nl, u.collapsed(), ps, narrow,
                                            {.num_threads = 1,
                                             .lane_parallel = false,
                                             .engine = Engine::kEvent,
                                             .lanes = lanes})
                  .detected_flags)
        << "l" << lanes;
    SimOptions opt;
    opt.num_threads = 2;
    opt.engine = Engine::kEvent;
    opt.lanes = lanes;
    EXPECT_EQ(oracle.detected_flags,
              fault::simulate_comb_parallel(nl, u.collapsed(), ps, narrow, opt)
                  .detected_flags)
        << "l" << lanes << "/parallel";
  }
}

TEST(EngineSelect, RtlgenComponentCoverageIdenticalAcrossEngines) {
  Rng rng(67);
  // One W=4 lane batch holds 255 faults and one W=4 grading chunk three
  // batches; the 6x6 multiplier spans two chunks, so drop-and-repack merges
  // batches in both.
  const Netlist wide_mul = rtlgen::build_multiplier({.width = 6});
  ASSERT_GT(FaultUniverse(wide_mul).collapsed().size(), 3u * 255u);
  for (const Netlist& nl :
       {rtlgen::build_alu({.width = 4}),
        rtlgen::build_multiplier({.width = 4}), wide_mul,
        rtlgen::build_control()}) {
    SCOPED_TRACE(nl.name());
    FaultUniverse u(nl);
    PatternSet ps(nl);
    for (int i = 0; i < 96; ++i) ps.add_random(rng);
    const CoverageResult oracle =
        fault::simulate_serial(nl, u.collapsed(), ps, {}, Engine::kReference);
    for (Engine e : {Engine::kReference, Engine::kEvent}) {
      EXPECT_EQ(oracle.detected_flags,
                fault::simulate_comb_parallel(
                    nl, u.collapsed(), ps, {},
                    {.num_threads = 1, .lane_parallel = false, .engine = e})
                    .detected_flags)
          << fault::engine_name(e);
      SimOptions opt;
      opt.num_threads = 4;
      opt.engine = e;
      EXPECT_EQ(oracle.detected_flags,
                fault::simulate_comb_parallel(nl, u.collapsed(), ps, {}, opt)
                    .detected_flags)
          << fault::engine_name(e) << "/parallel";
    }
    // Every event-engine grading configuration, each against the oracle.
    for (unsigned lanes : {1u, 4u}) {
      for (bool lane_parallel : {false, true}) {
        for (int netlist_opt : {0, 1}) {
          SimOptions opt;
          opt.num_threads = 2;
          opt.engine = Engine::kEvent;
          opt.lanes = lanes;
          opt.lane_parallel = lane_parallel;
          opt.netlist_opt = netlist_opt;
          EXPECT_EQ(oracle.detected_flags,
                    fault::simulate_comb_parallel(nl, u.collapsed(), ps, {},
                                                  opt)
                        .detected_flags)
              << "l" << lanes << (lane_parallel ? "/lane" : "/block")
              << "/opt" << netlist_opt;
        }
      }
    }
  }
}

// ---- reference-evaluator satellites ----------------------------------------

TEST(ReferenceEval, ClearFaultsRevertsOnlyTouchedSites) {
  // Behavioral check of the touched-site teardown: stacking many injects and
  // clearing must restore the pristine fault-free state.
  Rng rng(88);
  const Netlist nl = random_comb_netlist(rng, 6, 70);
  Evaluator ev(nl);
  Evaluator pristine(nl);
  for (NetId in : nl.inputs()) {
    const std::uint64_t w = rng.next64();
    ev.set_input_word(in, w);
    pristine.set_input_word(in, w);
  }
  pristine.eval();
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 5; ++k) {
      const NetId g = NetId(rng.below(nl.size()));
      ev.inject({g, Site::kOutputPin}, rng.chance(0.5), rng.next64());
    }
    ev.eval();
    ev.clear_faults();
    EXPECT_FALSE(ev.has_faults());
    ev.eval();
    for (NetId id = 0; id < nl.size(); ++id) {
      ASSERT_EQ(ev.value(id), pristine.value(id)) << "net " << id;
    }
  }
}

}  // namespace
}  // namespace sbst::netlist

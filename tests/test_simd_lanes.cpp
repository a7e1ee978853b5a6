// Multi-word SIMD lane blocks (CompiledEvaluatorT<4>, netlist/compiled.hpp).
//
// At W=4 every net carries a 4-word block of 256 lanes; a grading pass packs
// the good machine in lane 0 and up to 255 faulty machines in the rest. The
// oracle for per-word semantics is the W=1 reference Evaluator driven with
// each word separately; the oracle for detection flags is the serial
// reference grading. Both must match bitwise for every lane width, thread
// count, and session-cache setting.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/component.hpp"
#include "core/session.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/compiled.hpp"
#include "netlist/eval.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/divider.hpp"

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

using Block4 = CompiledEvaluatorT<4>;

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

/// Every word of the W=4 evaluator must equal a reference Evaluator driven
/// with that word's inputs, on every net.
void expect_words_match(const std::vector<Evaluator*>& oracles,
                        const Block4& ev, const char* label) {
  const Netlist& nl = oracles[0]->netlist();
  for (unsigned w = 0; w < Block4::kWords; ++w) {
    for (NetId id = 0; id < nl.size(); ++id) {
      ASSERT_EQ(oracles[w]->value(id), ev.value_word(id, w))
          << label << ": word " << w << " net " << id;
    }
  }
}

TEST(SimdLanes, BlockEvalMatchesReferencePerWord) {
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    const Netlist nl = random_comb_netlist(rng, 6, 60 + rng.below(60));
    SCOPED_TRACE("seed " + std::to_string(seed));
    Evaluator o0(nl), o1(nl), o2(nl), o3(nl);
    const std::vector<Evaluator*> oracles{&o0, &o1, &o2, &o3};
    const CompiledNetlist cn(nl);
    Block4 full(cn);
    Block4 event(cn);

    for (int iter = 0; iter < 25; ++iter) {
      for (NetId in : nl.inputs()) {
        std::uint64_t words[4];
        for (unsigned w = 0; w < 4; ++w) {
          words[w] = rng.next64();
          oracles[w]->set_input_word(in, words[w]);
        }
        full.set_input_block(in, words);
        event.set_input_block(in, words);
      }
      for (Evaluator* o : oracles) o->eval();
      full.request_full_eval();
      full.eval();
      event.eval();
      expect_words_match(oracles, full, "full");
      expect_words_match(oracles, event, "event");
    }
  }
}

TEST(SimdLanes, InjectLaneTargetsExactlyOneLane) {
  // A buf so the fault has one downstream reader.
  Netlist nl("one_lane");
  const NetId a = nl.input("a");
  const NetId y = nl.buf(a);
  nl.output("y", y);

  for (unsigned lane : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 254u, 255u}) {
    Block4 ev(nl);
    const std::uint64_t zeros[4] = {0, 0, 0, 0};
    ev.set_input_block(a, zeros);
    ev.eval();
    ev.inject_lane({a, Site::kOutputPin}, /*stuck_value=*/true, lane);
    ev.eval();
    for (unsigned w = 0; w < 4; ++w) {
      const std::uint64_t expect =
          (lane / 64 == w) ? (std::uint64_t{1} << (lane % 64)) : 0;
      EXPECT_EQ(ev.value_word(y, w), expect) << "lane " << lane << " word "
                                             << w;
      // diff vs lane 0 shows the same single bit — except when the fault was
      // injected INTO lane 0: then the "reference" lane itself is faulty and
      // every other lane diffs against it (graders only inject lanes >= 1,
      // preserving the good-machine-in-lane-0 invariant).
      const std::uint64_t diff_expect =
          (lane == 0) ? (expect ^ ~std::uint64_t{0}) : expect;
      EXPECT_EQ(ev.diff_word(y, w, 0), diff_expect) << "lane " << lane;
    }
    ev.clear_faults();
    ev.eval();
    for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(ev.value_word(y, w), 0u);
  }
}

TEST(SimdLanes, DiffWordBroadcastsTheReferenceLane) {
  Netlist nl("diff_ref");
  const NetId a = nl.input("a");
  nl.output("y", nl.not_(a));

  Block4 ev(nl);
  const std::uint64_t words[4] = {0x1ULL, 0x0ULL, ~std::uint64_t{0}, 0xF0ULL};
  ev.set_input_block(a, words);
  ev.eval();
  const NetId y = nl.output_port("y")[0];
  // Reference lane 0 holds y = ~1 -> bit0 == 0: diff = value ^ 0...0.
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(ev.diff_word(y, w, 0), ev.value_word(y, w));
  }
  // Reference lane 1 holds y-bit 1: diff = value ^ all-ones.
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(ev.diff_word(y, w, 1), ~ev.value_word(y, w));
  }
}

TEST(SimdLanes, SeqStepMatchesReferencePerWord) {
  Rng rng(46);
  const Netlist nl = random_seq_netlist(rng, 5, 5, 50);
  Evaluator o0(nl), o1(nl), o2(nl), o3(nl);
  const std::vector<Evaluator*> oracles{&o0, &o1, &o2, &o3};
  Block4 event(nl);

  for (bool init : {false, true}) {
    for (Evaluator* o : oracles) o->reset_state(init);
    event.reset_state(init);
    for (int cycle = 0; cycle < 25; ++cycle) {
      for (NetId in : nl.inputs()) {
        std::uint64_t words[4];
        for (unsigned w = 0; w < 4; ++w) {
          words[w] = rng.next64();
          oracles[w]->set_input_word(in, words[w]);
        }
        event.set_input_block(in, words);
      }
      for (Evaluator* o : oracles) o->step();
      event.step();
      expect_words_match(oracles, event, "seq");
    }
  }
}

TEST(SimdLanes, FaultInjectionMatchesReferencePerWordWithOpt) {
  // Single collapsed faults on the W=4 evaluator with the optimization
  // passes on: every word still matches a per-word reference oracle on the
  // output nets.
  Rng rng(47);
  const Netlist nl = random_comb_netlist(rng, 6, 90);
  const FaultUniverse u(nl);
  const std::vector<Fault>& faults = u.collapsed();
  ASSERT_FALSE(faults.empty());

  Evaluator o0(nl), o1(nl), o2(nl), o3(nl);
  const std::vector<Evaluator*> oracles{&o0, &o1, &o2, &o3};
  const CompiledNetlist cn(nl, CompileOptions::all());
  Block4 event(cn);

  for (int iter = 0; iter < 60; ++iter) {
    for (NetId in : nl.inputs()) {
      std::uint64_t words[4];
      for (unsigned w = 0; w < 4; ++w) {
        words[w] = rng.next64();
        oracles[w]->set_input_word(in, words[w]);
      }
      event.set_input_block(in, words);
    }
    const Fault& f = faults[rng.below(faults.size())];
    // The same whole-word mask in every word keeps the per-word oracle
    // simple (each word sees a broadcast inject with that mask).
    const std::uint64_t mask = rng.next64() | 1u;
    for (Evaluator* o : oracles) o->inject(f.site, f.stuck_value, mask);
    const std::uint64_t block_mask[4] = {mask, mask, mask, mask};
    event.inject_block(f.site, f.stuck_value, block_mask);
    for (Evaluator* o : oracles) o->eval();
    event.eval();
    for (unsigned w = 0; w < 4; ++w) {
      for (NetId out : nl.output_nets()) {
        ASSERT_EQ(oracles[w]->value(out), event.value_word(out, w))
            << "word " << w << " out " << out;
      }
    }
    for (Evaluator* o : oracles) o->clear_faults();
    event.clear_faults();
  }
}

// ---- grading equivalence across the full configuration matrix --------------

TEST(SimdLanes, GradingFlagsIdenticalAcrossLaneWidthsAndThreads) {
  Rng rng(48);
  const Netlist nl = random_comb_netlist(rng, 8, 160);
  const FaultUniverse u(nl);
  PatternSet ps(nl);
  for (int i = 0; i < 130; ++i) ps.add_random(rng);

  const CoverageResult oracle =
      fault::simulate_serial(nl, u.collapsed(), ps, {}, Engine::kReference);
  for (unsigned lanes : {1u, 4u}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      for (int netlist_opt : {0, 1}) {
        for (bool lane_parallel : {false, true}) {
          SimOptions opt;
          opt.num_threads = threads;
          opt.lane_parallel = lane_parallel;
          opt.engine = Engine::kEvent;
          opt.lanes = lanes;
          opt.netlist_opt = netlist_opt;
          const CoverageResult got =
              fault::simulate_comb_parallel(nl, u.collapsed(), ps, {}, opt);
          EXPECT_EQ(oracle.detected_flags, got.detected_flags)
              << "lanes " << lanes << " threads " << threads << " opt "
              << netlist_opt << (lane_parallel ? " lane" : " block");
        }
      }
    }
  }
}

TEST(SimdLanes, SeqGradingFlagsIdenticalAcrossLaneWidths) {
  Rng rng(49);
  const Netlist nl = random_seq_netlist(rng, 5, 5, 60);
  const FaultUniverse u(nl);
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
  for (unsigned lanes : {1u, 4u}) {
    for (unsigned threads : {1u, 2u}) {
      SimOptions opt;
      opt.num_threads = threads;
      opt.engine = Engine::kEvent;
      opt.lanes = lanes;
      opt.netlist_opt = 1;
      const CoverageResult got =
          fault::simulate_seq_parallel(nl, u.collapsed(), st, {}, opt);
      EXPECT_EQ(oracle.detected_flags, got.detected_flags)
          << "lanes " << lanes << " threads " << threads;
    }
  }
}

TEST(SimdLanes, SessionGradingIdenticalAcrossLanesThreadsAndCache) {
  // The acceptance matrix: lanes {1,4} x threads {1,2,8} x session cache
  // {on,off}, graded through GradingSession's keyed compiled-netlist cache.
  core::ProcessorModel model;
  const core::CutId id = core::CutId::kAlu;
  const netlist::Netlist& nl = model.component(id).netlist;

  Rng rng(50);
  PatternSet ps(nl);
  for (int i = 0; i < 48; ++i) ps.add_random(rng);

  std::vector<std::uint8_t> oracle_flags;
  for (bool cache : {true, false}) {
    core::GradingSession session(model, {.num_threads = 2, .cache = cache});
    const FaultUniverse& u = session.universe(id);
    const fault::ObserveSet& obs =
        session.observe(id, core::ObserveMode::kFullNetlist);
    if (oracle_flags.empty()) {
      oracle_flags = fault::simulate_comb_parallel(
                         nl, u.collapsed(), ps, obs,
                         {.num_threads = 1,
                          .lane_parallel = false,
                          .engine = Engine::kReference})
                         .detected_flags;
    }
    for (unsigned lanes : {1u, 4u}) {
      for (unsigned threads : {1u, 2u, 8u}) {
        SimOptions opt;
        opt.num_threads = threads;
        opt.engine = Engine::kEvent;
        opt.lanes = lanes;
        opt.netlist_opt = 1;
        opt.compiled = &session.compiled(id, CompileOptions::all());
        const CoverageResult got = fault::simulate_comb_parallel(
            nl, u.collapsed(), ps, obs, opt);
        EXPECT_EQ(oracle_flags, got.detected_flags)
            << "cache " << cache << " lanes " << lanes << " threads "
            << threads;
      }
    }
    // The session cache must key compiled netlists by CompileOptions: a
    // plain request after the optimized one returns a distinct build, not
    // an alias.
    const CompiledNetlist& opt_cn =
        session.compiled(id, CompileOptions::all());
    const CompiledNetlist& plain_cn = session.compiled(id, CompileOptions{});
    EXPECT_NE(&opt_cn, &plain_cn);
    EXPECT_GE(plain_cn.live_gates(), opt_cn.live_gates());
  }
}

TEST(SimdLanes, EngineContextResolvesLaneWidth) {
  Rng rng(51);
  const Netlist nl = random_comb_netlist(rng, 4, 30);
  const std::vector<NetId> outs = nl.output_nets();
  // Reference engine always grades at width 1 regardless of the request.
  const fault::EngineContext ref(Engine::kReference, nl, outs, nullptr,
                                 nullptr, 4);
  EXPECT_EQ(ref.lanes(), 1u);
  const fault::EngineContext ev4(Engine::kEvent, nl, outs, nullptr, nullptr,
                                 4);
  EXPECT_EQ(ev4.lanes(), 4u);
  const fault::EngineContext ev1(Engine::kEvent, nl, outs, nullptr, nullptr,
                                 1);
  EXPECT_EQ(ev1.lanes(), 1u);
  // Unset options resolve to W=4 with every compile pass on; no
  // environment variable can change that.
  const fault::EngineContext dflt(Engine::kEvent, nl, outs);
  EXPECT_EQ(dflt.lanes(), 4u);
  EXPECT_TRUE(dflt.compiled()->options() == CompileOptions::all());
}

}  // namespace
}  // namespace sbst::netlist

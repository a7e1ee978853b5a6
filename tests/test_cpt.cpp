// Differential suite for the critical-path-tracing kernel (grade_cpt): every
// netlist shape its region cuts and Boolean differences must get right,
// graded under every fault model, lane width, thread count and netlist-pass
// setting, must flag exactly the faults the serial oracle flags.
//
// The fault lists are uncollapsed (every gate output and every input pin,
// both polarities) so branch faults that collapsing would merge into a stem
// are graded on their own pin.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/netlist.hpp"

namespace sbst::fault {
namespace {

using netlist::NetId;
using netlist::Netlist;
using netlist::Site;

constexpr FaultModel kModels[] = {FaultModel::kStuckAt,
                                  FaultModel::kTransition,
                                  FaultModel::kTransientSEU,
                                  FaultModel::kIntermittent};

/// Every stuck site of `nl` under `model`: each gate output and each input
/// pin, at both values.
std::vector<Fault> all_faults(const Netlist& nl, FaultModel model) {
  std::vector<Fault> faults;
  for (NetId g = 0; g < nl.size(); ++g) {
    std::vector<Site> sites{{g, Site::kOutputPin}};
    for (unsigned p = 0; p < netlist::fanin_count(nl.gate(g).kind); ++p) {
      sites.push_back({g, static_cast<std::uint8_t>(p)});
    }
    for (const Site& site : sites) {
      for (bool v : {false, true}) faults.push_back({site, v, model});
    }
  }
  return faults;
}

/// `count` uniformly random patterns; a count that is not a multiple of 64
/// leaves the last block padded.
PatternSet random_patterns(const Netlist& nl, std::size_t count,
                           std::uint64_t seed) {
  Rng rng(seed);
  PatternSet ps(nl);
  for (std::size_t i = 0; i < count; ++i) ps.add_random(rng);
  return ps;
}

/// Grades every model with the production comb path (critical-path tracing)
/// at W=1 and W=4, on 1, 2 and 8 threads, with netlist passes on and off,
/// plus once on the reference engine, and demands the oracle's flags.
void expect_matches_oracle(const Netlist& nl, const PatternSet& ps,
                           const ObserveSet& observe,
                           const std::string& name) {
  for (FaultModel model : kModels) {
    const std::vector<Fault> faults = all_faults(nl, model);
    const CoverageResult oracle = simulate_serial(nl, faults, ps, observe);
    auto check = [&](const SimOptions& opt, const std::string& config) {
      const CoverageResult got =
          simulate_comb_parallel(nl, faults, ps, observe, opt);
      const std::string label =
          name + "/" + fault_model_name(model) + "/" + config;
      ASSERT_EQ(got.detected_flags.size(), faults.size()) << label;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        EXPECT_EQ(got.detected_flags[f], oracle.detected_flags[f])
            << label << " " << fault_name(nl, faults[f]);
      }
      EXPECT_EQ(got.detected, oracle.detected) << label;
    };
    for (int netlist_opt : {0, 1}) {
      for (unsigned lanes : {1u, 4u}) {
        for (unsigned threads : {1u, 2u, 8u}) {
          check({.num_threads = threads,
                 .lane_parallel = true,
                 .engine = Engine::kEvent,
                 .lanes = lanes,
                 .netlist_opt = netlist_opt},
                "opt" + std::to_string(netlist_opt) + "/l" +
                    std::to_string(lanes) + "/t" + std::to_string(threads));
        }
      }
    }
    check({.num_threads = 2,
           .lane_parallel = true,
           .engine = Engine::kReference},
          "reference");
    // The work must not be vacuous: some faults detected, some not.
    EXPECT_GT(oracle.detected, 0u) << name << "/" << fault_model_name(model);
  }
}

TEST(CptDifferential, EveryGateKindAndEveryMuxPin) {
  Netlist nl("kinds");
  const netlist::Bus in = nl.input_bus("i", 8);
  // Each gate's pins read fanout-free subtrees, so every fault inside them
  // reaches its head through that gate's Boolean difference.
  const NetId a = nl.and_(in[0], in[1]);
  const NetId o = nl.or_(in[2], in[3]);
  const NetId x = nl.xor_(in[4], in[5]);
  const NetId n = nl.nand_(in[6], in[7]);
  const NetId r = nl.nor_(a, o);
  const NetId xn = nl.xnor_(x, n);
  const NetId m = nl.mux2(nl.not_(r), nl.buf(xn), nl.and_(in[0], in[7]));
  nl.output("m", m);
  // A second mux whose select, d0 and d1 are all live-sensitive: the select
  // matters only where d0 != d1, d0 only where sel = 0, d1 only where 1.
  const NetId m2 = nl.mux2(nl.xor_(in[1], in[6]), nl.or_(in[2], in[5]),
                           nl.nand_(in[3], in[4]));
  nl.output("m2", m2);
  expect_matches_oracle(nl, random_patterns(nl, 100, 1), {}, "kinds");
}

TEST(CptDifferential, SameNetOnTwoPinsAndObservedStem) {
  Netlist nl("two_pins");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId c = nl.input("c");
  const NetId d = nl.input("d");
  // One net on two pins of the same gate: a branch fault changes one pin,
  // the stem fault both.
  const NetId aa = nl.and_(a, a);
  const NetId bb = nl.xor_(b, b);
  const NetId ss = nl.mux2(c, c, d);
  const NetId oo = nl.or_(d, d);
  // `t` is observed and also read by two more gates.
  const NetId t = nl.nand_(aa, nl.or_(bb, ss));
  nl.output("t", t);
  nl.output("u", nl.xor_(t, oo));
  nl.output("v", nl.mux2(t, c, nl.not_(a)));
  expect_matches_oracle(nl, random_patterns(nl, 70, 2), {}, "two_pins");
}

TEST(CptDifferential, ConstantNets) {
  Netlist nl("consts");
  const netlist::Bus in = nl.input_bus("i", 4);
  const NetId k0 = nl.constant(false);  // read once: inside a region
  const NetId k1 = nl.constant(true);   // read three times: a head
  nl.output("p", nl.or_(nl.and_(in[0], k1), nl.xor_(in[1], k0)));
  nl.output("q", nl.mux2(k1, in[2], in[3]));
  nl.output("r", nl.nand_(k1, nl.nor_(in[0], in[3])));
  expect_matches_oracle(nl, random_patterns(nl, 90, 3), {}, "consts");
}

TEST(CptDifferential, InverterChainsWithFusedHeads) {
  Netlist nl("chains");
  const netlist::Bus in = nl.input_bus("i", 6);
  // Chain whose tail is a head with fanout 3: with netlist passes on, the
  // tail is fused away and its flip travels through remapped pins.
  const NetId tail = nl.not_(nl.buf(nl.not_(nl.and_(in[0], in[1]))));
  nl.output("x", nl.and_(tail, in[2]));
  nl.output("y", nl.or_(tail, in[3]));
  nl.output("z", nl.xor_(tail, nl.not_(nl.not_(in[4]))));
  // Chain with a head in the middle (fanout 2), ending at an output.
  const NetId mid = nl.buf(nl.not_(in[5]));
  nl.output("w", nl.not_(nl.buf(nl.nand_(mid, in[0]))));
  nl.output("v", nl.not_(mid));
  expect_matches_oracle(nl, random_patterns(nl, 130, 4), {}, "chains");
}

TEST(CptDifferential, ObserveSubsetIncludingAnInternalNet) {
  Netlist nl("observe");
  const netlist::Bus in = nl.input_bus("i", 6);
  const NetId inner = nl.xor_(in[0], in[1]);  // fanout 1, but observed
  const NetId s = nl.and_(inner, nl.or_(in[2], in[3]));
  nl.output("s", s);
  nl.output("t", nl.nor_(nl.mux2(in[4], s, in[5]), in[1]));
  // Only the internal net and one of the two outputs are observed.
  expect_matches_oracle(nl, random_patterns(nl, 200, 5), {inner, s},
                        "observe");
}

TEST(CptDifferential, RandomNetlistsAcrossBlockGroups) {
  // Random DAGs with several W=4 block groups, so faults drop out between
  // groups and the transition launch bit chains across them.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(0xcb7 + seed);
    Netlist nl("random");
    std::vector<NetId> nets;
    for (unsigned i = 0; i < 8; ++i) {
      nets.push_back(nl.input("i" + std::to_string(i)));
    }
    auto pick = [&] { return nets[rng.below(nets.size())]; };
    for (unsigned g = 0; g < 40; ++g) {
      switch (rng.below(5)) {
        case 0: nets.push_back(nl.not_(pick())); break;
        case 1: nets.push_back(nl.and_(pick(), pick())); break;
        case 2: nets.push_back(nl.or_(pick(), pick())); break;
        case 3: nets.push_back(nl.xor_(pick(), pick())); break;
        default: nets.push_back(nl.mux2(pick(), pick(), pick())); break;
      }
    }
    for (std::size_t k = 0; k < 3; ++k) {
      nl.output("o" + std::to_string(k), nets[nets.size() - 1 - k]);
    }
    expect_matches_oracle(nl, random_patterns(nl, 600, seed), {},
                          "random" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace sbst::fault

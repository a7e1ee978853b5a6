// Fault universe, collapsing, and the three fault-simulation engines.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/shifter.hpp"

namespace sbst::fault {
namespace {

using netlist::Netlist;
using netlist::NetId;

// Block PPSFP on the calling thread and the reference engine: the fast
// path these tests pin against the serial oracle.
const SimOptions kBlocks{.num_threads = 1,
                         .lane_parallel = false,
                         .engine = Engine::kReference};
// Lane-packed sequential grading on the calling thread and the reference
// engine.
const SimOptions kSeqRef{.num_threads = 1, .engine = Engine::kReference};

// c17-style tiny benchmark circuit: irredundant, fully testable.
Netlist make_c17() {
  Netlist nl("c17");
  const NetId i1 = nl.input("i1");
  const NetId i2 = nl.input("i2");
  const NetId i3 = nl.input("i3");
  const NetId i4 = nl.input("i4");
  const NetId i5 = nl.input("i5");
  const NetId g1 = nl.nand_(i1, i3);
  const NetId g2 = nl.nand_(i3, i4);
  const NetId g3 = nl.nand_(i2, g2);
  const NetId g4 = nl.nand_(g2, i5);
  nl.output("o1", nl.nand_(g1, g3));
  nl.output("o2", nl.nand_(g3, g4));
  return nl;
}

PatternSet exhaustive_patterns(const Netlist& nl) {
  PatternSet ps(nl);
  const std::size_t n = nl.inputs().size();
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << n); ++v) {
    std::vector<PortValue> assignment;
    std::uint64_t rest = v;
    for (const netlist::Port& p : nl.input_ports()) {
      assignment.emplace_back(p.name, rest & low_mask(static_cast<unsigned>(
                                                p.nets.size())));
      rest >>= p.nets.size();
    }
    ps.add(assignment);
  }
  return ps;
}

TEST(FaultUniverse, CollapsingShrinksButKeepsAllClasses) {
  const Netlist nl = make_c17();
  FaultUniverse u(nl);
  EXPECT_GT(u.uncollapsed_count(), u.size());
  EXPECT_GT(u.size(), 0u);
  // Representatives must be unique.
  std::set<std::pair<std::uint64_t, bool>> seen;
  for (const Fault& f : u.collapsed()) {
    const auto key = std::make_pair(
        static_cast<std::uint64_t>(f.site.gate) * 256 + f.site.pin,
        f.stuck_value);
    EXPECT_TRUE(seen.insert(key).second) << fault_name(nl, f);
  }
}

TEST(FaultUniverse, C17FullyTestableByExhaustiveSet) {
  // c17 is irredundant: every collapsed fault must be detected by the
  // exhaustive pattern set.
  const Netlist nl = make_c17();
  FaultUniverse u(nl);
  const PatternSet ps = exhaustive_patterns(nl);
  const CoverageResult res =
      simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks);
  EXPECT_EQ(res.detected, res.total);
  EXPECT_DOUBLE_EQ(res.percent(), 100.0);
}

TEST(FaultUniverse, ConstantsOnlyGetOppositePolarity) {
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId c1 = nl.constant(true);
  nl.output("x", nl.and_(a, c1));
  FaultUniverse u(nl);
  for (const Fault& f : u.collapsed()) {
    if (f.site.gate == c1 && f.site.is_output()) {
      EXPECT_FALSE(f.stuck_value);
    }
  }
}

TEST(FaultSim, SerialAndPpsfpAgreeOnC17) {
  const Netlist nl = make_c17();
  FaultUniverse u(nl);
  Rng rng(3);
  PatternSet ps(nl);
  for (int i = 0; i < 10; ++i) ps.add_random(rng);
  const CoverageResult serial = simulate_serial(nl, u.collapsed(), ps);
  const CoverageResult ppsfp =
      simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks);
  ASSERT_EQ(serial.detected_flags.size(), ppsfp.detected_flags.size());
  for (std::size_t i = 0; i < serial.detected_flags.size(); ++i) {
    EXPECT_EQ(serial.detected_flags[i], ppsfp.detected_flags[i])
        << fault_name(nl, u.collapsed()[i]);
  }
}

TEST(FaultSim, SerialAndPpsfpAgreeOnAlu8) {
  const Netlist nl = rtlgen::build_alu({.width = 8});
  FaultUniverse u(nl);
  Rng rng(5);
  PatternSet ps(nl);
  for (int i = 0; i < 40; ++i) ps.add_random(rng);
  const CoverageResult serial = simulate_serial(nl, u.collapsed(), ps);
  const CoverageResult ppsfp =
      simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks);
  EXPECT_EQ(serial.detected, ppsfp.detected);
  for (std::size_t i = 0; i < serial.detected_flags.size(); ++i) {
    EXPECT_EQ(serial.detected_flags[i], ppsfp.detected_flags[i])
        << fault_name(nl, u.collapsed()[i]);
  }
}

TEST(FaultSim, ObserveSetRestrictsDetection) {
  // Two disjoint cones: with only x observed, faults in y's cone must not
  // be credited.
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId c = nl.input("c");
  const NetId d = nl.input("d");
  nl.output("x", nl.and_(a, b));
  const NetId y = nl.xor_(c, d);
  nl.output("y", y);
  FaultUniverse u(nl);
  const PatternSet ps = exhaustive_patterns(nl);
  const ObserveSet only_x{nl.output_port("x")[0]};
  const CoverageResult partial =
      simulate_comb_parallel(nl, u.collapsed(), ps, only_x, kBlocks);
  const CoverageResult full =
      simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks);
  EXPECT_LT(partial.detected, full.detected);
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (u.collapsed()[i].site.gate == y) {
      EXPECT_EQ(partial.detected_flags[i], 0);
    }
  }
}

TEST(FaultSim, ValidLaneMaskPreventsPhantomDetections) {
  // A single pattern (1 valid lane in the block): faults detectable only by
  // other input values must stay undetected.
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId x = nl.and_(a, b);
  nl.output("x", x);
  FaultUniverse u(nl);
  PatternSet ps(nl);
  ps.add({{"a", 1}, {"b", 1}});  // detects only sa0-class faults
  const CoverageResult res =
      simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks);
  for (std::size_t i = 0; i < u.size(); ++i) {
    const Fault& f = u.collapsed()[i];
    if (f.site.gate == x && f.site.is_output()) {
      EXPECT_EQ(res.detected_flags[i], f.stuck_value ? 0 : 1);
    }
  }
}

TEST(FaultSim, SequentialEngineMatchesCombOnCombinationalCircuit) {
  const Netlist nl = make_c17();
  FaultUniverse u(nl);
  Rng rng(9);
  PatternSet ps(nl);
  SeqStimulus seq(nl);
  for (int i = 0; i < 20; ++i) {
    std::vector<PortValue> assignment;
    for (const netlist::Port& p : nl.input_ports()) {
      assignment.emplace_back(p.name, rng.next64() & 1u);
    }
    ps.add(assignment);
    seq.add_cycle(assignment, /*observe=*/true);
  }
  const CoverageResult comb =
      simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks);
  const CoverageResult sequential =
      simulate_seq_parallel(nl, u.collapsed(), seq, {}, kSeqRef);
  EXPECT_EQ(comb.detected, sequential.detected);
  for (std::size_t i = 0; i < comb.detected_flags.size(); ++i) {
    EXPECT_EQ(comb.detected_flags[i], sequential.detected_flags[i]);
  }
}

TEST(FaultSim, SequentialDividerDetectsDatapathFaults) {
  const Netlist nl = rtlgen::build_divider({.width = 4});
  FaultUniverse u(nl);
  SeqStimulus seq(nl);
  // A few divisions with varied operands, observing after completion.
  const std::pair<unsigned, unsigned> ops[] = {
      {15, 1}, {15, 15}, {9, 4}, {5, 10}, {0, 3}, {7, 2}, {12, 5}, {3, 3}};
  for (auto [dividend, divisor] : ops) {
    seq.add_cycle({{"start", 1},
                   {"dividend", dividend},
                   {"divisor", divisor}},
                  false);
    for (int i = 0; i < 4; ++i) {
      seq.add_cycle({{"start", 0}}, false);
    }
    // Results are read (and the hold paths exercised) after completion,
    // like the mflo/mfhi that follows a div instruction.
    seq.add_cycle({{"start", 0}}, true);
  }
  const CoverageResult res =
      simulate_seq_parallel(nl, u.collapsed(), seq, {}, kSeqRef);
  // The datapath is well exercised; expect solid (not necessarily full)
  // coverage from just 8 divisions observed only at their final results.
  EXPECT_GT(res.percent(), 65.0);
  EXPECT_LT(res.percent(), 100.0);  // control-path corners remain
}

TEST(FaultSim, MergeAccumulatesAcrossRoutines) {
  const Netlist nl = make_c17();
  FaultUniverse u(nl);
  PatternSet p1(nl), p2(nl);
  p1.add({{"i1", 1}, {"i2", 0}, {"i3", 1}, {"i4", 0}, {"i5", 1}});
  p2.add({{"i1", 0}, {"i2", 1}, {"i3", 0}, {"i4", 1}, {"i5", 0}});
  CoverageResult r1 =
      simulate_comb_parallel(nl, u.collapsed(), p1, {}, kBlocks);
  const CoverageResult r2 =
      simulate_comb_parallel(nl, u.collapsed(), p2, {}, kBlocks);
  const std::size_t d1 = r1.detected;
  r1.merge(r2);
  EXPECT_GE(r1.detected, d1);
  EXPECT_GE(r1.detected, r2.detected);
}

TEST(CoverageResult, PercentHandlesEmpty) {
  CoverageResult r;
  EXPECT_DOUBLE_EQ(r.percent(), 100.0);
}

}  // namespace
}  // namespace sbst::fault

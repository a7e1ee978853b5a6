// Additional fault-layer coverage: pattern containers across block
// boundaries, collapsing on sequential netlists, result accounting.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/regfile.hpp"

namespace sbst::fault {
namespace {

using netlist::Netlist;
using netlist::NetId;

// Block PPSFP and lane-packed sequential grading on the calling thread and
// the reference engine.
const SimOptions kBlocks{.num_threads = 1,
                         .lane_parallel = false,
                         .engine = Engine::kReference};
const SimOptions kSeqRef{.num_threads = 1, .engine = Engine::kReference};

TEST(PatternSet, MultiBlockRoundTrip) {
  Netlist nl;
  nl.input_bus("x", 16);
  nl.output_bus("y", nl.input_port("x"));
  PatternSet ps(nl);
  for (std::uint64_t i = 0; i < 200; ++i) {
    ps.add({{"x", i * 37 % 65536}});
  }
  EXPECT_EQ(ps.size(), 200u);
  EXPECT_EQ(ps.block_count(), 4u);  // ceil(200/64)
  for (std::uint64_t i = 0; i < 200; i += 13) {
    EXPECT_EQ(ps.value_of(i, "x"), i * 37 % 65536);
  }
  EXPECT_THROW(ps.value_of(200, "x"), std::out_of_range);
}

TEST(PatternSet, ValidLanesMaskPartialBlocks) {
  Netlist nl;
  nl.input("a");
  nl.output("y", nl.buf(nl.inputs()[0]));
  PatternSet ps(nl);
  for (int i = 0; i < 70; ++i) ps.add({{"a", 1}});
  EXPECT_EQ(ps.valid_lanes(0), ~std::uint64_t{0});
  EXPECT_EQ(ps.valid_lanes(1), 0x3fu);  // 6 patterns in the tail block
}

TEST(PatternSet, UnlistedInputsDefaultToZero) {
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  nl.output("y", nl.or_(a, b));
  PatternSet ps(nl);
  ps.add({{"a", 1}});  // b unspecified
  EXPECT_EQ(ps.value_of(0, "b"), 0u);
}

TEST(SeqStimulus, ObserveCounting) {
  Netlist nl;
  nl.input("a");
  nl.output("y", nl.buf(nl.inputs()[0]));
  SeqStimulus seq(nl);
  seq.add_cycle({{"a", 1}}, false);
  seq.add_cycle({{"a", 0}}, true);
  seq.add_cycle({{"a", 1}}, true);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.observe_count(), 2u);
  EXPECT_TRUE(seq.input_bit(0, 0));
  EXPECT_FALSE(seq.input_bit(1, 0));
  EXPECT_FALSE(seq.observed(0));
  EXPECT_TRUE(seq.observed(2));
}

TEST(FaultUniverse, SequentialNetlistsCollapseToo) {
  const Netlist nl = rtlgen::build_divider({.width = 4});
  FaultUniverse u(nl);
  EXPECT_GT(u.uncollapsed_count(), u.size());
  // Every representative site must belong to a real gate/pin.
  for (const Fault& f : u.collapsed()) {
    ASSERT_LT(f.site.gate, nl.size());
    if (!f.site.is_output()) {
      ASSERT_LT(f.site.pin, fanin_count(nl.gate(f.site.gate).kind));
    }
  }
}

TEST(FaultUniverse, CollapseRatioIsSubstantial) {
  // Equivalence collapsing conventionally removes ~40-50% of gate-level
  // faults; our builder-generated structures should be in that regime.
  const Netlist nl = rtlgen::build_regfile({.num_regs = 8, .width = 8});
  FaultUniverse u(nl);
  const double ratio = static_cast<double>(u.size()) /
                       static_cast<double>(u.uncollapsed_count());
  EXPECT_LT(ratio, 0.8);
  EXPECT_GT(ratio, 0.3);
}

TEST(CoverageResult, MergeRejectsMismatchedLists) {
  CoverageResult a, b;
  a.detected_flags.assign(4, 0);
  b.detected_flags.assign(5, 0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(CoverageResult, UndetectedListsExactlyTheMisses) {
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  nl.output("y", nl.and_(a, b));
  FaultUniverse u(nl);
  PatternSet ps(nl);
  ps.add({{"a", 1}, {"b", 1}});  // catches the sa0 class only
  const CoverageResult res =
      simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks);
  const auto missing = res.undetected(u.collapsed());
  EXPECT_EQ(missing.size(), res.total - res.detected);
  for (const Fault& f : missing) {
    EXPECT_TRUE(f.stuck_value) << fault_name(nl, f);  // all sa1 flavours
  }
}

TEST(FaultSim, SequentialBatchBoundaries) {
  // More than 63 faults forces multiple injection batches; detection
  // results must be identical to grading the same list in two halves.
  const Netlist nl = rtlgen::build_divider({.width = 4});
  FaultUniverse u(nl);
  ASSERT_GT(u.size(), 126u);
  SeqStimulus seq(nl);
  seq.add_cycle({{"start", 1}, {"dividend", 9}, {"divisor", 2}}, false);
  for (int i = 0; i < 4; ++i) seq.add_cycle({{"start", 0}}, false);
  seq.add_cycle({{"start", 0}}, true);

  const CoverageResult whole =
      simulate_seq_parallel(nl, u.collapsed(), seq, {}, kSeqRef);
  const std::vector<Fault> first(u.collapsed().begin(),
                                 u.collapsed().begin() + 100);
  const std::vector<Fault> second(u.collapsed().begin() + 100,
                                  u.collapsed().end());
  const CoverageResult r1 = simulate_seq_parallel(nl, first, seq, {}, kSeqRef);
  const CoverageResult r2 = simulate_seq_parallel(nl, second, seq, {}, kSeqRef);
  EXPECT_EQ(whole.detected, r1.detected + r2.detected);
}

TEST(FaultSim, ThrowsOnNetlistWithoutOutputs) {
  Netlist nl;
  nl.input("a");
  FaultUniverse u(nl);
  PatternSet ps(nl);
  ps.add({{"a", 1}});
  EXPECT_THROW(simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks),
               std::invalid_argument);
}

TEST(FaultSim, CombEngineRejectsSequentialNetlist) {
  const Netlist nl = rtlgen::build_divider({.width = 4});
  FaultUniverse u(nl);
  PatternSet ps(nl);
  ps.add({{"start", 1}});
  EXPECT_THROW(simulate_comb_parallel(nl, u.collapsed(), ps, {}, kBlocks),
               std::invalid_argument);
  EXPECT_THROW(simulate_serial(nl, u.collapsed(), ps),
               std::invalid_argument);
}

}  // namespace
}  // namespace sbst::fault

// Regular deterministic TPG: set sizes scale as claimed (constant + linear),
// sets reach their coverage, and — the key §3.3 property — they are
// implementation-independent (same set, different gate-level realisations).
#include <gtest/gtest.h>

#include "core/tpg.hpp"
#include "fault/sim_parallel.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/control.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/memctrl.hpp"
#include "rtlgen/multiplier.hpp"
#include "rtlgen/regfile.hpp"
#include "rtlgen/shifter.hpp"

namespace sbst::core {
namespace {

using netlist::Netlist;

double grade_comb(const Netlist& nl, const fault::PatternSet& ps,
                  const fault::ObserveSet& obs = {}) {
  fault::FaultUniverse u(nl);
  return fault::simulate_comb_parallel(nl, u.collapsed(), ps, obs).percent();
}

double grade_seq(const Netlist& nl, const fault::SeqStimulus& seq) {
  fault::FaultUniverse u(nl);
  return fault::simulate_seq_parallel(nl, u.collapsed(), seq).percent();
}

// ---- set-size scaling (constant or linear, paper §1/§3.3) ------------------

TEST(RegularTpg, SetSizesScaleLinearly) {
  const auto alu8 = regular_alu_tests(8);
  const auto alu32 = regular_alu_tests(32);
  // constant part + 6 linear families.
  EXPECT_EQ(alu32.size() - alu8.size(), 6u * (32 - 8));

  const auto mul8 = regular_multiplier_tests(8);
  const auto mul32 = regular_multiplier_tests(32);
  EXPECT_EQ(mul32.size() - mul8.size(), 3u * (32 - 8));

  const auto div8 = regular_divider_tests(8);
  const auto div32 = regular_divider_tests(32);
  EXPECT_EQ(div32.size() - div8.size(), 3u * (32 - 8));

  const auto sh8 = regular_shifter_tests(8);
  const auto sh32 = regular_shifter_tests(32);
  EXPECT_EQ(sh8.size(), 3u * 3 * 8);
  EXPECT_EQ(sh32.size(), 3u * 3 * 32);
}

TEST(RegularTpg, RegfileSetLinearInRegisters) {
  EXPECT_EQ(regular_regfile_tests(8).size() % 7, 0u);
  const auto t16 = regular_regfile_tests(16);
  const auto t32 = regular_regfile_tests(32);
  EXPECT_LT(t32.size(), 2.2 * t16.size());
}

// ---- coverage thresholds ----------------------------------------------------

TEST(RegularTpg, AluSetReachesHighCoverage) {
  const Netlist nl = rtlgen::build_alu({.width = 16});
  const auto ps = alu_pattern_set(nl, regular_alu_tests(16));
  EXPECT_GT(grade_comb(nl, ps), 99.0);
}

TEST(RegularTpg, ShifterSetCoverage) {
  const Netlist nl = rtlgen::build_shifter({.width = 16});
  const auto ps = shifter_pattern_set(nl, regular_shifter_tests(16));
  EXPECT_GT(grade_comb(nl, ps), 90.0);
}

TEST(RegularTpg, MultiplierSetCoverage) {
  const Netlist nl = rtlgen::build_multiplier({.width = 8});
  const auto ps = multiplier_pattern_set(nl, regular_multiplier_tests(8));
  // Narrow arrays have proportionally more boundary faults; the 32-bit
  // instance reaches ~95% with the same family (see bench/table1).
  EXPECT_GT(grade_comb(nl, ps), 88.0);
}

TEST(RegularTpg, DividerSetCoverage) {
  const Netlist nl = rtlgen::build_divider({.width = 8});
  const auto seq = divider_stimulus(nl, regular_divider_tests(8), 8);
  EXPECT_GT(grade_seq(nl, seq), 80.0);
}

TEST(RegularTpg, RegfileSetCoverage) {
  const Netlist nl = rtlgen::build_regfile({.num_regs = 8, .width = 8});
  const auto seq = regfile_stimulus(nl, regular_regfile_tests(8));
  EXPECT_GT(grade_seq(nl, seq), 93.0);
}

TEST(RegularTpg, MemctrlSetCoverage) {
  // The A-VC MAR is deliberately unexercised (offsets stay within the test
  // words), capping coverage — the paper's A-VC story.
  const Netlist nl = rtlgen::build_memctrl();
  const auto seq = memctrl_stimulus(nl, regular_memctrl_tests());
  const double fc = grade_seq(nl, seq);
  EXPECT_GT(fc, 70.0);
  EXPECT_LT(fc, 90.0);
}

TEST(RegularTpg, ControlFunctionalTestCoverage) {
  const Netlist nl = rtlgen::build_control();
  const auto ps = control_pattern_set(nl);
  EXPECT_EQ(ps.size(), rtlgen::all_instruction_opcodes().size());
  const double fc = grade_comb(nl, ps);
  EXPECT_GT(fc, 75.0);  // FT has a natural ceiling (illegal opcodes never run)
  EXPECT_LT(fc, 100.0);
}

// ---- implementation independence (the high-level strategy's defining
// ---- property, paper §3.3 strategy 3) ---------------------------------------

class AluImplementation
    : public ::testing::TestWithParam<rtlgen::AdderStyle> {};

TEST_P(AluImplementation, SameRegularSetWorksOnBothAdders) {
  const Netlist nl = rtlgen::build_alu({.width = 16, .adder = GetParam()});
  const auto ps = alu_pattern_set(nl, regular_alu_tests(16));
  // Full coverage of lookahead product terms needs generate(j) x kill(k)
  // pairs — quadratically many; the linear set still lands within ~2% of
  // the ripple-carry figure, which is the implementation-independence claim
  // being validated here.
  const double threshold =
      GetParam() == rtlgen::AdderStyle::kRippleCarry ? 99.0 : 97.5;
  EXPECT_GT(grade_comb(nl, ps), threshold);
}

INSTANTIATE_TEST_SUITE_P(
    BothStyles, AluImplementation,
    ::testing::Values(rtlgen::AdderStyle::kRippleCarry,
                      rtlgen::AdderStyle::kCarryLookahead),
    [](const auto& info) {
      return info.param == rtlgen::AdderStyle::kRippleCarry ? "ripple"
                                                            : "cla";
    });

// ---- widths sweep: the sets remain effective at several widths --------------

class WidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(WidthSweep, AluRegularSetCoverageAcrossWidths) {
  const unsigned w = GetParam();
  const Netlist nl = rtlgen::build_alu({.width = w});
  const auto ps = alu_pattern_set(nl, regular_alu_tests(w));
  EXPECT_GT(grade_comb(nl, ps), 98.5) << "width " << w;
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(4u, 8u, 16u, 32u),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

// ---- lowering fidelity -------------------------------------------------------

TEST(RegularTpg, PatternLoweringPreservesOperands) {
  const Netlist nl = rtlgen::build_alu({.width = 32});
  const auto tests = regular_alu_tests(32);
  const auto ps = alu_pattern_set(nl, tests);
  ASSERT_EQ(ps.size(), tests.size());
  for (std::size_t i = 0; i < tests.size(); i += 17) {
    EXPECT_EQ(ps.value_of(i, "a"), tests[i].a);
    EXPECT_EQ(ps.value_of(i, "b"), tests[i].b);
    EXPECT_EQ(ps.value_of(i, "op"),
              static_cast<std::uint64_t>(tests[i].op));
  }
}

TEST(RegularTpg, DividerStimulusFollowsProtocol) {
  const Netlist nl = rtlgen::build_divider({.width = 8});
  const std::vector<DivOpnd> one = {{100, 7}};
  const auto seq = divider_stimulus(nl, one, 8);
  // start + 8 steps + 3 observed idle cycles.
  EXPECT_EQ(seq.size(), 12u);
  EXPECT_EQ(seq.observe_count(), 3u);
}

}  // namespace
}  // namespace sbst::core

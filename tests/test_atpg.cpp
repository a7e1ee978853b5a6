// PODEM ATPG: correctness of generated tests, constraint handling,
// untestability proofs, and the test-set generation driver.
#include <gtest/gtest.h>

#include <stdexcept>

#include "atpg/podem.hpp"
#include "atpg/testgen.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/shifter.hpp"

namespace sbst::atpg {
namespace {

using fault::Fault;
using fault::FaultUniverse;
using fault::PatternSet;
using netlist::Netlist;
using netlist::NetId;

// Checks with the fault simulator that `pattern` really detects `f`.
bool pattern_detects(const Netlist& nl, const Fault& f,
                     const std::vector<bool>& pattern) {
  netlist::Evaluator good(nl), bad(nl);
  const auto& ins = nl.inputs();
  for (std::size_t k = 0; k < ins.size(); ++k) {
    good.set_input(ins[k], pattern[k]);
    bad.set_input(ins[k], pattern[k]);
  }
  bad.inject(f.site, f.stuck_value, ~std::uint64_t{0});
  good.eval();
  bad.eval();
  for (NetId out : nl.output_nets()) {
    if ((good.value(out) ^ bad.value(out)) & 1u) return true;
  }
  return false;
}

TEST(Podem, GeneratesValidTestsForEveryAluFault) {
  const Netlist nl = rtlgen::build_alu({.width = 4});
  FaultUniverse u(nl);
  Podem podem(nl);
  Rng rng(1);
  std::size_t detected = 0, untestable = 0, aborted = 0;
  for (const Fault& f : u.collapsed()) {
    const AtpgOutcome out = podem.generate(f, rng);
    switch (out.status) {
      case AtpgStatus::kDetected:
        ++detected;
        EXPECT_TRUE(pattern_detects(nl, f, out.pattern))
            << fault_name(nl, f);
        break;
      case AtpgStatus::kUntestable:
        ++untestable;
        break;
      case AtpgStatus::kAborted:
        ++aborted;
        break;
    }
  }
  // The ALU generator produces a near-irredundant structure; PODEM must
  // test essentially everything without aborts.
  EXPECT_EQ(aborted, 0u);
  EXPECT_GT(detected, u.size() * 95 / 100);
}

TEST(Podem, UntestableFaultsProvenOnRedundantCircuit) {
  // y = a AND !a is constant 0: the AND output sa0 is untestable.
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId y = nl.and_(a, nl.not_(a));
  nl.output("y", y);
  Podem podem(nl);
  Rng rng(2);
  const AtpgOutcome sa0 =
      podem.generate({{y, netlist::Site::kOutputPin}, false}, rng);
  EXPECT_EQ(sa0.status, AtpgStatus::kUntestable);
  const AtpgOutcome sa1 =
      podem.generate({{y, netlist::Site::kOutputPin}, true}, rng);
  EXPECT_EQ(sa1.status, AtpgStatus::kDetected);
}

TEST(Podem, HonoursInputConstraints) {
  // c = a AND b with b pinned to 0: faults needing b=1 become untestable.
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId c = nl.and_(a, b);
  nl.output("c", c);

  InputConstraints cons;
  cons.fix_net(b, false);
  Podem podem(nl, cons);
  Rng rng(3);

  // c sa0 requires a=b=1: untestable under b=0.
  EXPECT_EQ(podem.generate({{c, netlist::Site::kOutputPin}, false}, rng).status,
            AtpgStatus::kUntestable);
  // c sa1 is testable (a=X, b=0 -> c=0, fault makes it 1).
  const AtpgOutcome sa1 =
      podem.generate({{c, netlist::Site::kOutputPin}, true}, rng);
  ASSERT_EQ(sa1.status, AtpgStatus::kDetected);
  EXPECT_FALSE(sa1.pattern[1]);  // constraint respected in emitted pattern
}

TEST(Podem, ConstraintsViaPortFixing) {
  // Shifter with op pinned to SLL: sra sign-fill logic loses coverage, but
  // tests that are generated still respect op = 00.
  const Netlist nl = rtlgen::build_shifter({.width = 8});
  InputConstraints cons;
  cons.fix_port(nl, "op", static_cast<std::uint64_t>(rtlgen::ShiftOp::kSll));
  Podem podem(nl, cons);
  Rng rng(4);
  FaultUniverse u(nl);
  const auto& op_bus = nl.input_port("op");
  std::size_t detected = 0;
  for (std::size_t i = 0; i < u.size(); i += 7) {  // sample for speed
    const AtpgOutcome out = podem.generate(u.collapsed()[i], rng);
    if (out.status != AtpgStatus::kDetected) continue;
    ++detected;
    EXPECT_TRUE(pattern_detects(nl, u.collapsed()[i], out.pattern));
    // op bits are the nets of the "op" port; check both are 0 in pattern.
    const auto& ins = nl.inputs();
    for (std::size_t k = 0; k < ins.size(); ++k) {
      if (ins[k] == op_bus[0] || ins[k] == op_bus[1]) {
        EXPECT_FALSE(out.pattern[k]);
      }
    }
  }
  EXPECT_GT(detected, 0u);
}

TEST(Podem, BranchFaultOnFanoutStem) {
  // Classic branch-fault case: a fans out to an AND and an OR.
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId x = nl.and_(a, b);
  const NetId y = nl.or_(a, b);
  nl.output("x", x);
  nl.output("y", y);
  Podem podem(nl);
  Rng rng(5);
  // Branch of a into the AND gate, sa0 (only visible on x).
  const AtpgOutcome out = podem.generate({{x, 0}, false}, rng);
  ASSERT_EQ(out.status, AtpgStatus::kDetected);
  EXPECT_TRUE(pattern_detects(nl, {{x, 0}, false}, out.pattern));
}

TEST(Podem, RejectsSequentialNetlists) {
  Netlist nl;
  const NetId q = nl.dff("q");
  nl.connect_dff(q, nl.not_(q));
  nl.output("q", q);
  EXPECT_THROW(Podem{nl}, std::invalid_argument);
}

TEST(TestGen, FullCoverageOnAlu8WithCompaction) {
  const Netlist nl = rtlgen::build_alu({.width = 8});
  FaultUniverse u(nl);
  TestGenOptions opts;
  opts.seed = 7;
  // The ALU carry/condition-flag reconvergence contains one redundant
  // fault; a high backtrack limit lets PODEM prove it untestable rather
  // than abort.
  opts.podem.backtrack_limit = 150000;
  const TestGenResult res = generate_atpg_tests(nl, u.collapsed(), {}, opts);
  EXPECT_EQ(res.aborted, 0u);
  EXPECT_EQ(res.untestable, 1u);
  // Everything except provably untestable faults must be covered.
  EXPECT_EQ(res.coverage.detected + res.untestable, res.coverage.total);
  EXPECT_GT(res.coverage.percent(), 99.0);
  // Fault dropping keeps the deterministic test set small (paper: "the
  // number of ATPG based test patterns is small").
  EXPECT_LT(res.patterns.size(), 64u + res.coverage.total / 4);
}

TEST(TestGen, ResultPatternsReallyAchieveReportedCoverage) {
  const Netlist nl = rtlgen::build_alu({.width = 4});
  FaultUniverse u(nl);
  TestGenOptions opts;
  opts.seed = 11;
  const TestGenResult res = generate_atpg_tests(nl, u.collapsed(), {}, opts);
  const auto replay =
      fault::simulate_comb_parallel(nl, u.collapsed(), res.patterns);
  EXPECT_EQ(replay.detected_flags, res.coverage.detected_flags);
}

// Fault dropping grades each flush against the faults still undetected, so
// the final flags must be exactly what the serial oracle finds over every
// pattern the generator returned: a detection missed by a flush, a flag not
// copied back, or a by-construction claim PODEM cannot back would all show.
void expect_flags_match_oracle(const Netlist& nl,
                               const std::vector<Fault>& faults,
                               const TestGenResult& res) {
  ASSERT_EQ(res.coverage.detected_flags.size(), faults.size());
  const fault::CoverageResult oracle =
      fault::simulate_serial(nl, faults, res.patterns);
  EXPECT_EQ(res.coverage.detected_flags, oracle.detected_flags);
  EXPECT_EQ(res.coverage.detected, oracle.detected);
}

TEST(TestGen, DetectionFlagsMatchSerialOracleOnAlu8) {
  const Netlist nl = rtlgen::build_alu({.width = 8});
  const FaultUniverse u(nl);
  const TestGenResult res = generate_atpg_tests(nl, u.collapsed());
  EXPECT_GT(res.patterns.size(), 64u);  // warmup plus deterministic tests
  expect_flags_match_oracle(nl, u.collapsed(), res);
}

TEST(TestGen, DetectionFlagsMatchSerialOracleOnConstrainedShifterPasses) {
  // The production shifter call (make_shifter_routine): one constrained
  // pass per shift op, each over the faults the previous pass left, with a
  // backtrack limit of 20000, 8 warmup patterns and seed 1 + op.
  const Netlist nl = rtlgen::build_shifter({.width = 32});
  std::vector<Fault> remaining = FaultUniverse(nl).collapsed();
  for (const rtlgen::ShiftOp op :
       {rtlgen::ShiftOp::kSll, rtlgen::ShiftOp::kSrl,
        rtlgen::ShiftOp::kSra}) {
    SCOPED_TRACE(static_cast<int>(op));
    InputConstraints cons;
    cons.fix_port(nl, "op", static_cast<std::uint64_t>(op));
    TestGenOptions tg;
    tg.podem.backtrack_limit = 20000;
    tg.random_warmup = 8;
    tg.seed = 1 + static_cast<std::uint64_t>(op);
    const TestGenResult res = generate_atpg_tests(nl, remaining, cons, tg);
    EXPECT_GT(res.coverage.detected, 0u);
    expect_flags_match_oracle(nl, remaining, res);
    std::vector<Fault> next;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (!res.coverage.detected_flags[i]) next.push_back(remaining[i]);
    }
    remaining = std::move(next);
    if (remaining.empty()) break;
  }
}

TEST(TestGen, RejectsFaultModelsOtherThanStuckAt) {
  // Activation streams and launch/capture pairs restart with every
  // fault-dropping pass, so split passes would not add up to one grading.
  const Netlist nl = rtlgen::build_alu({.width = 4});
  for (const fault::FaultModel model :
       {fault::FaultModel::kTransition, fault::FaultModel::kTransientSEU,
        fault::FaultModel::kIntermittent}) {
    const FaultUniverse u(nl, model);
    EXPECT_THROW(generate_atpg_tests(nl, u.collapsed()),
                 std::invalid_argument)
        << fault::fault_model_name(model);
  }
}

TEST(TestGen, RandomTestsAreDeterministicAndConstrained) {
  const Netlist nl = rtlgen::build_alu({.width = 8});
  InputConstraints cons;
  cons.fix_port(nl, "op", static_cast<std::uint64_t>(rtlgen::AluOp::kAdd));
  const PatternSet a = generate_random_tests(nl, 50, 99, Lfsr32::kDefaultPoly,
                                             cons);
  const PatternSet b = generate_random_tests(nl, 50, 99, Lfsr32::kDefaultPoly,
                                             cons);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.value_of(i, "a"), b.value_of(i, "a"));
    EXPECT_EQ(a.value_of(i, "op"),
              static_cast<std::uint64_t>(rtlgen::AluOp::kAdd));
  }
  // Different seeds give different streams.
  const PatternSet c = generate_random_tests(nl, 50, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < 50; ++i) {
    any_diff = any_diff || a.value_of(i, "a") != c.value_of(i, "a");
  }
  EXPECT_TRUE(any_diff);
}

TEST(TestGen, RandomPatternsResistantFaultsNeedAtpg) {
  // The paper motivates deterministic ATPG by random-pattern-resistant
  // structures. A wide AND is the canonical example: its output sa0 needs
  // the all-ones input, which N random patterns (N << 2^16) rarely supply.
  Netlist nl;
  const auto a = nl.input_bus("a", 16);
  const NetId y = nl.and_reduce(a);
  nl.output("y", y);
  FaultUniverse u(nl);

  const PatternSet random = generate_random_tests(nl, 256, 1);
  const auto rand_cov =
      fault::simulate_comb_parallel(nl, u.collapsed(), random);
  EXPECT_LT(rand_cov.percent(), 100.0);

  const TestGenResult det = generate_atpg_tests(nl, u.collapsed());
  EXPECT_DOUBLE_EQ(det.coverage.percent(), 100.0);
}

}  // namespace
}  // namespace sbst::atpg

// Integration: full program build + evaluation, and end-to-end gate-level
// fault injection with signature-based detection — the complete SBST flow.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/evaluate.hpp"
#include "core/inject.hpp"

namespace sbst::core {
namespace {

// Expensive fixtures shared across tests in this file.
struct Fixture {
  ProcessorModel model;
  TestProgramBuilder builder;
  TestProgram program;
  Fixture() {
    builder.add_default_routines(model);
    program = builder.build();
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Integration, ProgramBuildsWithSevenRoutines) {
  const TestProgram& p = fixture().program;
  EXPECT_EQ(p.routines.size(), 7u);
  EXPECT_EQ(p.sections.size(), 7u);
  for (const auto& section : p.sections) {
    EXPECT_GT(section.size_words(), 0u);
  }
  // Program sizes stay in the paper's regime (hundreds to ~2k words).
  EXPECT_LT(p.image.size_words(), 4000u);
}

TEST(Integration, DuplicateRoutineRejected) {
  TestProgramBuilder b;
  b.add(make_alu_routine());
  EXPECT_THROW(b.add(make_alu_routine()), std::invalid_argument);
}

TEST(Integration, FullEvaluationMatchesPaperShape) {
  const Fixture& f = fixture();
  const ProgramEvaluation ev =
      evaluate_program(f.model, f.builder, f.program);

  // Paper-shape assertions (Table 1):
  EXPECT_TRUE(ev.total.halted);
  EXPECT_EQ(ev.total.pipeline_stall_cycles, 0u);   // no unresolved hazards
  EXPECT_LT(ev.total.data_references(), 200u);     // paper: 87
  EXPECT_GT(ev.overall_fc(), 93.0);                // paper: 95.6
  EXPECT_LT(ev.total.cpu_cycles, 60000u);          // paper: 9,905 (same order)

  // Per-CUT: D-VCs reach high coverage; A-VC-heavy memctrl is capped; the
  // HCs get meaningful side-effect coverage.
  EXPECT_GT(ev.cut(CutId::kAlu).coverage.percent(), 99.0);
  EXPECT_GT(ev.cut(CutId::kShifter).coverage.percent(), 97.0);
  EXPECT_GT(ev.cut(CutId::kMultiplier).coverage.percent(), 95.0);
  EXPECT_GT(ev.cut(CutId::kRegisterFile).coverage.percent(), 95.0);
  EXPECT_GT(ev.cut(CutId::kDivider).coverage.percent(), 85.0);
  const double mem_fc = ev.cut(CutId::kMemCtrl).coverage.percent();
  EXPECT_GT(mem_fc, 70.0);
  EXPECT_LT(mem_fc, 90.0);
  EXPECT_GT(ev.cut(CutId::kForwarding).coverage.percent(), 75.0);
  EXPECT_GT(ev.cut(CutId::kPipeline).coverage.percent(), 75.0);

  // Missing-FC accounting: contributions sum to 100 - overall.
  double missing = 0;
  for (const CutCoverage& c : ev.cuts) missing += ev.missing_fc(c.id);
  EXPECT_NEAR(missing, 100.0 - ev.overall_fc(), 1e-6);

  // Seven signatures unloaded (slot 7 is reserved for studies).
  for (const Routine& r : f.program.routines) {
    EXPECT_NE(ev.signatures[r.sig_slot], 0u) << r.name;
  }

  // Execution time: < a quantum at 57 MHz under the paper's cache
  // assumptions (5% miss rate, 20-cycle penalty).
  const double seconds =
      static_cast<double>(ev.total.analytic_total_cycles(0.05, 20)) / 57e6;
  EXPECT_LT(seconds, 0.2);  // paper quantum: a few hundred ms
}

TEST(Integration, ObservabilityRestrictionLowersCoverage) {
  // Architectural observability must never credit more than full-netlist
  // observability; for the memory controller (A-VC MAR excluded) it is
  // strictly lower.
  const Fixture& f = fixture();
  EvalOptions arch;
  EvalOptions full;
  full.architectural_observability = false;
  const ProgramEvaluation a = evaluate_program(f.model, f.builder,
                                               f.program, arch);
  const ProgramEvaluation b = evaluate_program(f.model, f.builder,
                                               f.program, full);
  for (const CutCoverage& c : a.cuts) {
    EXPECT_LE(c.coverage.detected, b.cut(c.id).coverage.detected)
        << f.model.component(c.id).name;
  }
  EXPECT_LT(a.cut(CutId::kMemCtrl).coverage.detected,
            b.cut(CutId::kMemCtrl).coverage.detected);
}

TEST(Integration, InjectedAluFaultsAreDetectedBySignatures) {
  // End-to-end: stuck-at faults injected into the gate-level ALU during
  // program execution must flip at least one signature word whenever the
  // component-level grading says they are covered.
  const Fixture& f = fixture();
  const netlist::Netlist& alu = f.model.component(CutId::kAlu).netlist;
  fault::FaultUniverse universe(alu);
  Rng rng(17);
  std::size_t checked = 0, detected = 0;
  for (int i = 0; i < 12; ++i) {
    const fault::Fault fault =
        universe.collapsed()[rng.below(universe.size())];
    const InjectionOutcome out =
        run_with_injection(f.model, f.program, CutId::kAlu, fault);
    ++checked;
    detected += out.detected;
  }
  // The ALU routine reaches ~99.9% coverage; allow at most one escapee in
  // the sample (e.g. a fault detectable only through the zero flag path).
  EXPECT_GE(detected + 1, checked);
}

TEST(Integration, InjectedShifterAndMultiplierFaultsDetected) {
  const Fixture& f = fixture();
  Rng rng(23);
  for (CutId cut : {CutId::kShifter, CutId::kMultiplier}) {
    const netlist::Netlist& nl = f.model.component(cut).netlist;
    fault::FaultUniverse universe(nl);
    std::size_t detected = 0;
    const int samples = 6;
    for (int i = 0; i < samples; ++i) {
      const fault::Fault fault =
          universe.collapsed()[rng.below(universe.size())];
      detected += run_with_injection(f.model, f.program, cut, fault).detected;
    }
    EXPECT_GE(detected, samples - 1) << static_cast<int>(cut);
  }
}

TEST(Integration, FaultFreeInjectionRunKeepsSignatures) {
  // Injecting a provably benign fault (stuck value equals the constant the
  // net always carries in this program) must not change signatures — guards
  // against false positives in the comparison logic.
  const Fixture& f = fixture();
  // Use an output stuck-at on a net that the masked comparison never
  // exercises: run with an injector whose fault never corrupts a result.
  const netlist::Netlist& alu = f.model.component(CutId::kAlu).netlist;
  fault::FaultUniverse universe(alu);
  // Find a fault the program provably does not detect (if any); otherwise
  // skip — full coverage is a fine outcome.
  EvalOptions opts;
  const ProgramEvaluation ev = evaluate_program(f.model, f.builder,
                                                f.program, opts);
  const auto& cc = ev.cut(CutId::kAlu);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (!cc.coverage.detected_flags[i]) {
      const InjectionOutcome out = run_with_injection(
          f.model, f.program, CutId::kAlu, universe.collapsed()[i]);
      EXPECT_FALSE(out.detected);
      return;
    }
  }
  GTEST_SKIP() << "ALU fully covered; no undetected fault to validate";
}

TEST(Integration, StandalonePerRoutineStatsAreConsistent) {
  const Fixture& f = fixture();
  const ProgramEvaluation ev = evaluate_program(f.model, f.builder,
                                                f.program);
  ASSERT_EQ(ev.routines.size(), 7u);
  std::uint64_t cycles = 0;
  std::size_t words = 0;
  for (const RoutineStats& r : ev.routines) {
    EXPECT_TRUE(r.exec.halted) << r.name;
    cycles += r.exec.cpu_cycles;
    words += r.size_words;
  }
  // Routine cycles approximately compose into the program total (the
  // combined run shares one break and the MISR subroutines).
  EXPECT_NEAR(static_cast<double>(cycles),
              static_cast<double>(ev.total.cpu_cycles),
              0.1 * static_cast<double>(ev.total.cpu_cycles));
  EXPECT_LT(words, f.program.image.size_words());
}

}  // namespace
}  // namespace sbst::core

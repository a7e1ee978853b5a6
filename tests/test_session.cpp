// GradingSession: cache-reuse accounting, observe-mode slots, and the
// differential guarantee — evaluate_program returns bitwise-identical
// results for every cache setting, evaluation engine, and thread count.
#include <gtest/gtest.h>

#include "core/evaluate.hpp"

namespace sbst::core {
namespace {

// A deliberately small program (ALU + memory-controller routines) with tight
// trace caps so the full cache × engine × thread matrix — including the
// reference engine — stays fast.
struct Fixture {
  ProcessorModel model;
  TestProgramBuilder builder;
  TestProgram program;
  Fixture() {
    builder.add(make_alu_routine({}));
    builder.add(make_memctrl_routine({}));
    program = builder.build();
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

EvalOptions small_options() {
  EvalOptions options;
  options.regfile_cycle_cap = 32;
  options.pipeline_cycle_cap = 256;
  return options;
}

void expect_same_exec(const sim::ExecStats& a, const sim::ExecStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cpu_cycles, b.cpu_cycles) << what;
  EXPECT_EQ(a.pipeline_stall_cycles, b.pipeline_stall_cycles) << what;
  EXPECT_EQ(a.memory_stall_cycles, b.memory_stall_cycles) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  EXPECT_EQ(a.stores, b.stores) << what;
  EXPECT_EQ(a.icache_misses, b.icache_misses) << what;
  EXPECT_EQ(a.dcache_misses, b.dcache_misses) << what;
  EXPECT_EQ(a.icache_accesses, b.icache_accesses) << what;
  EXPECT_EQ(a.dcache_accesses, b.dcache_accesses) << what;
  EXPECT_EQ(a.halted, b.halted) << what;
}

void expect_same_evaluation(const ProgramEvaluation& a,
                            const ProgramEvaluation& b,
                            const std::string& what) {
  ASSERT_EQ(a.cuts.size(), b.cuts.size()) << what;
  for (std::size_t i = 0; i < a.cuts.size(); ++i) {
    const CutCoverage& ca = a.cuts[i];
    const CutCoverage& cb = b.cuts[i];
    EXPECT_EQ(ca.id, cb.id) << what;
    EXPECT_EQ(ca.collapsed_faults, cb.collapsed_faults) << what;
    EXPECT_EQ(ca.uncollapsed_faults, cb.uncollapsed_faults) << what;
    EXPECT_EQ(ca.stimulus_size, cb.stimulus_size) << what;
    EXPECT_EQ(ca.coverage.total, cb.coverage.total) << what;
    EXPECT_EQ(ca.coverage.detected, cb.coverage.detected) << what;
    EXPECT_EQ(ca.coverage.detected_flags, cb.coverage.detected_flags)
        << what << " cut " << static_cast<int>(ca.id);
  }
  EXPECT_EQ(a.signatures, b.signatures) << what;
  expect_same_exec(a.total, b.total, what + " total");
  ASSERT_EQ(a.routines.size(), b.routines.size()) << what;
  for (std::size_t i = 0; i < a.routines.size(); ++i) {
    EXPECT_EQ(a.routines[i].name, b.routines[i].name) << what;
    EXPECT_EQ(a.routines[i].style, b.routines[i].style) << what;
    EXPECT_EQ(a.routines[i].size_words, b.routines[i].size_words) << what;
    expect_same_exec(a.routines[i].exec, b.routines[i].exec,
                     what + " routine " + a.routines[i].name);
  }
}

TEST(GradingSession, EvaluationIdenticalAcrossCacheEngineAndThreads) {
  const Fixture& f = fixture();

  EvalOptions base_options = small_options();
  base_options.sim.engine = fault::Engine::kEvent;
  GradingSession base_session(f.model, {.num_threads = 1});
  const ProgramEvaluation baseline =
      evaluate_program(base_session, f.builder, f.program, base_options);
  EXPECT_GT(baseline.overall_fc(), 0.0);

  for (bool cache : {true, false}) {
    for (fault::Engine engine :
         {fault::Engine::kReference, fault::Engine::kEvent}) {
      for (unsigned threads : {1u, 2u, 8u}) {
        const std::string what = std::string("cache=") +
                                 (cache ? "on" : "off") + " engine=" +
                                 fault::engine_name(engine) + " threads=" +
                                 std::to_string(threads);
        EvalOptions options = small_options();
        options.sim.engine = engine;
        GradingSession session(f.model,
                               {.num_threads = threads, .cache = cache});
        const ProgramEvaluation ev =
            evaluate_program(session, f.builder, f.program, options);
        expect_same_evaluation(baseline, ev, what);
      }
    }
  }
}

TEST(GradingSession, LegacyOverloadMatchesSessionForm) {
  const Fixture& f = fixture();
  const EvalOptions options = small_options();
  GradingSession session(f.model, {.num_threads = 2});
  const ProgramEvaluation a =
      evaluate_program(session, f.builder, f.program, options);
  const ProgramEvaluation b =
      evaluate_program(f.model, f.builder, f.program, options);
  expect_same_evaluation(a, b, "legacy overload");
}

TEST(GradingSession, SecondEvaluationHitsTheCache) {
  const Fixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 2});
  const EvalOptions options = small_options();

  evaluate_program(session, f.builder, f.program, options);
  const SessionStats first = session.stats();
  EXPECT_EQ(first.universe_builds, f.model.components().size());
  EXPECT_EQ(first.universe_hits, 0u);
  EXPECT_EQ(first.compile_builds, f.model.components().size());
  EXPECT_GT(first.observe_builds, 0u);
  EXPECT_GT(first.cone_builds, 0u);

  evaluate_program(session, f.builder, f.program, options);
  const SessionStats second = session.stats();
  EXPECT_EQ(second.universe_builds, first.universe_builds);
  EXPECT_EQ(second.compile_builds, first.compile_builds);
  EXPECT_EQ(second.observe_builds, first.observe_builds);
  EXPECT_EQ(second.cone_builds, first.cone_builds);
  EXPECT_EQ(second.universe_hits, first.universe_hits +
                                      f.model.components().size());
  EXPECT_GT(second.compile_hits, first.compile_hits);
  EXPECT_GT(second.cone_hits, first.cone_hits);
}

TEST(GradingSession, CacheOffRebuildsEveryTime) {
  const Fixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 1, .cache = false});
  const fault::FaultUniverse& u1 = session.universe(CutId::kAlu);
  EXPECT_GT(u1.size(), 0u);
  session.universe(CutId::kAlu);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.universe_builds, 2u);
  EXPECT_EQ(stats.universe_hits, 0u);
}

TEST(GradingSession, ObserveModesSelectDistinctSlots) {
  ProcessorModel& model = fixture().model;
  GradingSession session(model);
  const ComponentInfo& mem = model.component(CutId::kMemCtrl);

  const fault::ObserveSet& arch =
      session.observe(CutId::kMemCtrl, ObserveMode::kArchitectural);
  const fault::ObserveSet& plus = session.observe(
      CutId::kMemCtrl, ObserveMode::kArchitecturalPlusAddress);
  const fault::ObserveSet& full =
      session.observe(CutId::kMemCtrl, ObserveMode::kFullNetlist);
  // MAR exclusion: plus-address strictly extends architectural, and the
  // full netlist observes at least as much as either.
  EXPECT_LT(arch.size(), plus.size());
  EXPECT_GE(full.size(), plus.size());
  EXPECT_EQ(full.size(), mem.netlist.output_nets().size());

  // The free functions agree with the cached sets.
  EXPECT_EQ(arch, observation_points(mem, ObserveMode::kArchitectural));
  EvalOptions options;
  options.observe_address_outputs = true;
  EXPECT_EQ(observe_mode(options), ObserveMode::kArchitecturalPlusAddress);
  EXPECT_EQ(plus, observation_points(mem, options));
}

TEST(GradingSession, ConeMatchesCompiledFaninCone) {
  ProcessorModel& model = fixture().model;
  GradingSession session(model);
  const auto& cone =
      session.cone(CutId::kAlu, ObserveMode::kArchitectural);
  const auto expected = session.compiled(CutId::kAlu).fanin_cone(
      session.observe(CutId::kAlu, ObserveMode::kArchitectural));
  EXPECT_EQ(cone, expected);
}

}  // namespace
}  // namespace sbst::core

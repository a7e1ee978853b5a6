// GradingSession: cache-reuse accounting, observe-mode slots, the identity
// of program-level cache keys in memory and in the store, and the
// differential guarantee — evaluate_program returns bitwise-identical
// results for every cache setting, evaluation engine, and thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluate.hpp"
#include "core/inject.hpp"
#include "isa/assembler.hpp"
#include "store/artifact_store.hpp"

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
    builder.add(make_alu_routine());
    builder.add(make_memctrl_routine());
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

// ---- program-level cache keys ---------------------------------------------

// A straight-line program that exercises the ALU, the shifter and the
// multiplier, so each injectable CUT gets a good-path table. Word
// kImmWord is `ori $t1, $zero, 7`: flipping its low bit keeps it valid.
constexpr std::size_t kImmWord = 3;

TestProgram tiny_program() {
  TestProgram p;
  p.image = isa::assemble(R"(
    nop
    nop
    lui  $t0, 0x1234
    ori  $t1, $zero, 7
    addu $t2, $t0, $t1
    sllv $t3, $t0, $t1
    mult $t0, $t1
    mflo $t4
    break
  )", 0x100);
  p.entry = 0x100;
  p.signature_base = 0x8000;
  return p;
}

// One run-key variant: the tiny program and the default CpuConfig with
// exactly one key field changed.
struct RunVariant {
  std::string name;
  TestProgram program;
  sim::CpuConfig config;
};

std::vector<RunVariant> run_key_variants() {
  std::vector<RunVariant> out;
  const auto program = [&](std::string name,
                           const std::function<void(TestProgram&)>& edit) {
    RunVariant v{std::move(name), tiny_program(), {}};
    edit(v.program);
    out.push_back(std::move(v));
  };
  const auto config = [&](std::string name,
                          const std::function<void(sim::CpuConfig&)>& edit) {
    RunVariant v{std::move(name), tiny_program(), {}};
    edit(v.config);
    out.push_back(std::move(v));
  };
  program("entry", [](TestProgram& p) { p.entry += 4; });
  program("signature_base", [](TestProgram& p) { p.signature_base += 4; });
  // Same words one word lower: the entry still lands inside the image.
  program("image base", [](TestProgram& p) { p.image.base -= 4; });
  program("image word", [](TestProgram& p) { p.image.words[kImmWord] ^= 1; });
  config("forwarding", [](sim::CpuConfig& c) { c.forwarding = false; });
  config("mem_access_cycles", [](sim::CpuConfig& c) { ++c.mem_access_cycles; });
  config("mult_cycles", [](sim::CpuConfig& c) { ++c.mult_cycles; });
  config("div_cycles", [](sim::CpuConfig& c) { ++c.div_cycles; });
  config("branch_taken_penalty",
         [](sim::CpuConfig& c) { ++c.branch_taken_penalty; });
  config("mem_bytes", [](sim::CpuConfig& c) { c.mem_bytes /= 2; });
  for (const auto& [cache, member] :
       {std::pair{"icache", &sim::CpuConfig::icache},
        std::pair{"dcache", &sim::CpuConfig::dcache}}) {
    const std::string prefix = std::string(cache) + ".";
    config(prefix + "enabled",
           [m = member](sim::CpuConfig& c) { (c.*m).enabled = false; });
    config(prefix + "line_words",
           [m = member](sim::CpuConfig& c) { (c.*m).line_words *= 2; });
    config(prefix + "lines",
           [m = member](sim::CpuConfig& c) { (c.*m).lines /= 2; });
    config(prefix + "miss_penalty",
           [m = member](sim::CpuConfig& c) { ++(c.*m).miss_penalty; });
  }
  return out;
}

// The decoded() variants: the image-changing run-key variants.
bool changes_image(const RunVariant& v) {
  return v.name == "image base" || v.name == "image word";
}

void expect_same_run(const GoodRun& a, const GoodRun& b,
                     const std::string& what) {
  expect_same_exec(a.stats, b.stats, what);
  EXPECT_EQ(a.signatures, b.signatures) << what;
}

struct TempStore {
  std::filesystem::path path;
  std::shared_ptr<store::ArtifactStore> store;
  explicit TempStore(const std::string& tag)
      : path(std::filesystem::path(::testing::TempDir()) /
             ("sbst-session-" + tag)) {
    std::filesystem::remove_all(path);
    store = std::make_shared<store::ArtifactStore>(path.string());
  }
  ~TempStore() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(GradingSession, GoodRunAndDecodedKeysCoverEveryField) {
  ProcessorModel& model = fixture().model;
  GradingSession session(model, {.num_threads = 1});
  const TestProgram base = tiny_program();
  ASSERT_TRUE(session.good_run(base).stats.halted);
  session.decoded(base.image);
  for (const RunVariant& v : run_key_variants()) {
    const SessionStats before = session.stats();
    EXPECT_TRUE(session.good_run(v.program, v.config).stats.halted)
        << v.name;
    const SessionStats missed = session.stats();
    EXPECT_EQ(missed.goodrun_builds, before.goodrun_builds + 1) << v.name;
    session.good_run(base);
    session.good_run(v.program, v.config);
    EXPECT_EQ(session.stats().goodrun_hits, missed.goodrun_hits + 2)
        << v.name;
    EXPECT_EQ(session.stats().goodrun_builds, missed.goodrun_builds)
        << v.name;

    const SessionStats d0 = session.stats();
    session.decoded(v.program.image);
    session.decoded(base.image);
    const SessionStats d1 = session.stats();
    // The good run above already decoded its image, so every image is a
    // hit by now; only a changed image ever built a second decode.
    EXPECT_EQ(d1.decode_hits, d0.decode_hits + 2) << v.name;
    EXPECT_EQ(d1.decode_builds, d0.decode_builds) << v.name;
    EXPECT_EQ(missed.decode_builds,
              before.decode_builds + (changes_image(v) ? 1 : 0))
        << v.name;
  }
}

TEST(GradingSession, WarmStoreAgreesWithMemoryOnRunKeys) {
  ProcessorModel& model = fixture().model;
  TempStore dir("runkeys");
  const TestProgram base = tiny_program();
  const std::vector<RunVariant> variants = run_key_variants();
  {
    GradingSession cold(model, {.num_threads = 1, .store = dir.store});
    cold.good_run(base);
  }
  // Only the base key is on disk: the base loads, every variant misses the
  // store and builds, just as it missed the memory cache above.
  std::vector<GoodRun> built;
  {
    GradingSession warm(model, {.num_threads = 1, .store = dir.store});
    warm.good_run(base);
    warm.decoded(base.image);
    EXPECT_EQ(warm.stats().goodrun_builds, 0u);
    EXPECT_EQ(warm.stats().decode_builds, 0u);
    EXPECT_EQ(warm.stats().store_hits, 2u);
    for (const RunVariant& v : variants) {
      const SessionStats before = warm.stats();
      built.push_back(warm.good_run(v.program, v.config));
      const SessionStats after = warm.stats();
      EXPECT_EQ(after.goodrun_builds, before.goodrun_builds + 1) << v.name;
      EXPECT_EQ(after.store_hits, before.store_hits) << v.name;
      EXPECT_EQ(after.decode_builds,
                before.decode_builds + (changes_image(v) ? 1 : 0))
          << v.name;
    }
  }
  // Every key is on disk now: each variant loads its own run, a second
  // request is a memory hit, and nothing is built.
  GradingSession rewarm(model, {.num_threads = 1, .store = dir.store});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const RunVariant& v = variants[i];
    const SessionStats before = rewarm.stats();
    expect_same_run(rewarm.good_run(v.program, v.config), built[i], v.name);
    EXPECT_EQ(rewarm.stats().store_hits, before.store_hits + 1) << v.name;
    rewarm.good_run(v.program, v.config);
    EXPECT_EQ(rewarm.stats().goodrun_hits, before.goodrun_hits + 1)
        << v.name;
  }
  for (const RunVariant& v : variants) {
    if (!changes_image(v)) continue;
    const SessionStats before = rewarm.stats();
    rewarm.decoded(v.program.image);
    EXPECT_EQ(rewarm.stats().store_hits, before.store_hits + 1) << v.name;
    rewarm.decoded(v.program.image);
    EXPECT_EQ(rewarm.stats().decode_hits, before.decode_hits + 1) << v.name;
  }
  rewarm.decoded(base.image);
  const SessionStats end = rewarm.stats();
  EXPECT_EQ(end.goodrun_builds, 0u);
  EXPECT_EQ(end.decode_builds, 0u);
  EXPECT_EQ(end.store_misses, 0u);
  EXPECT_EQ(end.store_invalid, 0u);
}

TEST(GradingSession, GoodPathKeyCoversEveryFieldPerCut) {
  ProcessorModel& model = fixture().model;
  GradingSession session(model, {.num_threads = 1});
  const TestProgram base = tiny_program();
  for (const CutId cut : {CutId::kAlu, CutId::kShifter, CutId::kMultiplier}) {
    const auto table = session.good_path(base, {}, cut);
    EXPECT_GT(table->size(), 0u);
    for (const CutId other :
         {CutId::kAlu, CutId::kShifter, CutId::kMultiplier}) {
      if (other != cut) {
        EXPECT_NE(session.good_path(base, {}, other), table);
      }
    }
    for (const RunVariant& v : run_key_variants()) {
      const auto variant = session.good_path(v.program, v.config, cut);
      EXPECT_NE(variant, table) << v.name;
      EXPECT_EQ(session.good_path(v.program, v.config, cut), variant)
          << v.name;
      EXPECT_EQ(session.good_path(base, {}, cut), table) << v.name;
    }
  }
  // Good paths are memory-only and uncounted.
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.goodrun_builds + stats.goodrun_hits, 0u);
}

}  // namespace
}  // namespace sbst::core

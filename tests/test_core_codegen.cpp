// Self-test routine code generation: the routines assemble, run, halt,
// respect the paper's stringent characteristics (no pipeline stalls, almost
// no data references), and their signatures match the MISR golden model.
#include <gtest/gtest.h>

#include "common/lfsr.hpp"
#include "core/codegen.hpp"
#include "core/program.hpp"
#include "sim/cpu.hpp"

namespace sbst::core {
namespace {

struct RunResult {
  sim::ExecStats stats;
  std::vector<std::uint32_t> signatures;
};

RunResult run_routine(const Routine& routine) {
  TestProgramBuilder builder;
  const TestProgram program = builder.build_standalone(routine);
  sim::Cpu cpu;
  cpu.reset();
  cpu.load(program.image);
  RunResult out;
  out.stats = cpu.run(program.entry);
  for (unsigned s = 0; s < kSignatureSlots; ++s) {
    out.signatures.push_back(cpu.read_word(program.signature_address(s)));
  }
  return out;
}

ProcessorModel& shared_model() {
  static ProcessorModel model;
  return model;
}

std::vector<Routine> all_routines() {
  return {make_multiplier_routine(), make_divider_routine(),
          make_regfile_routine(),    make_memctrl_routine(),
          make_shifter_routine(shared_model()),
          make_alu_routine(),        make_control_routine()};
}

TEST(Codegen, MisrSubroutineMatchesGoldenModel) {
  // Drive the assembly MISR with a known response stream and compare the
  // final signature word with the Misr32 reference.
  const std::vector<std::uint32_t> responses = {0xdeadbeefu, 0x12345678u,
                                                0x00000000u, 0xffffffffu,
                                                0xa5a5a5a5u};
  std::string body;
  char buf[64];
  std::snprintf(buf, sizeof buf, "  li $s7, 0x%x\n  li $s2, 0x%x\n",
                kMisrPoly, kMisrSeed);
  body += buf;
  for (std::uint32_t r : responses) {
    std::snprintf(buf, sizeof buf, "  li $t8, 0x%x\n", r);
    body += buf;
    body += "  jal misr\n  nop\n";
  }
  body += "  la $s6, signatures\n  sw $s2, 0($s6)\n";
  Routine r{.name = "misrtest", .target = CutId::kAlu,
            .strategy = TpgStrategy::kRegularDeterministic, .style = "t",
            .assembly = body};
  const RunResult run = run_routine(r);
  EXPECT_TRUE(run.stats.halted);
  EXPECT_EQ(run.signatures[0],
            misr_reference(responses, kMisrSeed, kMisrPoly));
}

TEST(Codegen, EveryRoutineAssemblesRunsAndHalts) {
  for (const Routine& r : all_routines()) {
    const RunResult run = run_routine(r);
    EXPECT_TRUE(run.stats.halted) << r.name;
    EXPECT_NE(run.signatures[r.sig_slot], 0u) << r.name;
  }
}

TEST(Codegen, RoutinesHaveNoPipelineStalls) {
  // Paper §2: "Small code without unresolved data hazards".
  for (const Routine& r : all_routines()) {
    const RunResult run = run_routine(r);
    EXPECT_EQ(run.stats.pipeline_stall_cycles, 0u) << r.name;
  }
}

TEST(Codegen, RoutinesMakeAlmostNoDataReferences) {
  // Paper §4: only the memory controller routine needs loads/stores for
  // test application; everything else stores just its final signature.
  for (const Routine& r : all_routines()) {
    const RunResult run = run_routine(r);
    if (r.target == CutId::kMemCtrl || r.target == CutId::kControl) {
      EXPECT_LT(run.stats.data_references(), 100u) << r.name;
    } else {
      EXPECT_EQ(run.stats.data_references(), 1u) << r.name;  // signature sw
    }
  }
}

TEST(Codegen, SignaturesAreDeterministic) {
  for (const Routine& r : all_routines()) {
    const RunResult a = run_routine(r);
    const RunResult b = run_routine(r);
    EXPECT_EQ(a.signatures, b.signatures) << r.name;
  }
}

TEST(Codegen, SignatureSlotsAreDistinct) {
  std::set<unsigned> slots;
  for (const Routine& r : all_routines()) {
    EXPECT_TRUE(slots.insert(r.sig_slot).second) << r.name;
  }
}

TEST(Codegen, RegfileRoutineAvoidsDataMemoryDuringTest) {
  // The two-phase scheme exists exactly to avoid stores (paper §3.3).
  const RunResult run = run_routine(make_regfile_routine());
  EXPECT_EQ(run.stats.stores, 1u);
  EXPECT_EQ(run.stats.loads, 0u);
}

// ---- Figures 1-4 code styles -------------------------------------------------

std::vector<AluOpnd> small_pattern_list() {
  return {{rtlgen::AluOp::kAdd, 0xaaaaaaaau, 0x55555555u},
          {rtlgen::AluOp::kAdd, 0xffffffffu, 0x00000001u},
          {rtlgen::AluOp::kAdd, 0x0f0f0f0fu, 0xf0f0f0f0u},
          {rtlgen::AluOp::kAdd, 0x33333333u, 0xccccccccu}};
}

TEST(CodeStyles, Fig1SizeLinearInPatterns) {
  // Paper: "The code size depends linearly on the number of test patterns."
  TestProgramBuilder builder;
  const auto four = builder.build_standalone(
      make_fig1_immediate_routine(small_pattern_list()));
  auto eight_list = small_pattern_list();
  auto more = small_pattern_list();
  eight_list.insert(eight_list.end(), more.begin(), more.end());
  const auto eight = builder.build_standalone(
      make_fig1_immediate_routine(eight_list));
  const std::size_t delta =
      eight.sections[0].size_words() - four.sections[0].size_words();
  // Each extra pattern costs 3-6 words (li/li/jal/apply, li width varies).
  EXPECT_GE(delta, 4u * 3);
  EXPECT_LE(delta, 4u * 6);
}

TEST(CodeStyles, Fig2SizeIndependentOfPatternCountButDataGrows) {
  // Paper: "The code size is small and independent of the number of test
  // patterns" — the patterns live in data memory instead.
  TestProgramBuilder builder;
  auto longer = small_pattern_list();
  for (int i = 0; i < 12; ++i) longer.push_back(small_pattern_list()[i % 4]);
  const Routine a =
      make_fig2_datafetch_routine(small_pattern_list(), rtlgen::AluOp::kAdd);
  const Routine b =
      make_fig2_datafetch_routine(longer, rtlgen::AluOp::kAdd);
  const auto pa = builder.build_standalone(a);
  const auto pb = builder.build_standalone(b);
  EXPECT_EQ(pa.sections[0].size_words(), pb.sections[0].size_words());
  EXPECT_GT(pb.image.size_words(), pa.image.size_words());  // .word table
}

TEST(CodeStyles, Fig2LoadsEveryPatternFromMemory) {
  const Routine r =
      make_fig2_datafetch_routine(small_pattern_list(), rtlgen::AluOp::kAdd);
  const RunResult run = run_routine(r);
  EXPECT_TRUE(run.stats.halted);
  // Two loads per pattern plus the final signature store.
  EXPECT_EQ(run.stats.loads, 2u * small_pattern_list().size());
  EXPECT_EQ(run.stats.stores, 1u);
}

TEST(CodeStyles, Fig1AndFig2ProduceSameSignature) {
  // Same patterns, same operation, same compaction -> same signature, no
  // matter how the patterns reach the CUT.
  auto only_add = small_pattern_list();
  const RunResult f1 =
      run_routine(make_fig1_immediate_routine(only_add));
  const RunResult f2 = run_routine(
      make_fig2_datafetch_routine(only_add, rtlgen::AluOp::kAdd));
  EXPECT_EQ(f1.signatures[7], f2.signatures[7]);
}

TEST(CodeStyles, Fig3LfsrMatchesSoftwareModel) {
  // The in-assembly Galois LFSR must generate exactly the Lfsr32 sequence;
  // verify via the signature of absorbing op(x_i, y_i).
  const unsigned n = 40;
  const std::uint32_t seed_x = 0x13572468u, seed_y = 0x2468ace1u;
  const RunResult run = run_routine(
      make_fig3_lfsr_routine(rtlgen::AluOp::kXor, seed_x, seed_y, n));
  Lfsr32 x(seed_x, kMisrPoly), y(seed_y, kMisrPoly);
  std::vector<std::uint32_t> responses;
  for (unsigned i = 0; i < n; ++i) {
    responses.push_back(x.step() ^ y.step());
  }
  EXPECT_EQ(run.signatures[7],
            misr_reference(responses, kMisrSeed, kMisrPoly));
}

TEST(CodeStyles, Fig3ExecutionTimeLinearInIterations) {
  const RunResult short_run = run_routine(
      make_fig3_lfsr_routine(rtlgen::AluOp::kAdd, 1, 2, 64));
  const RunResult long_run = run_routine(
      make_fig3_lfsr_routine(rtlgen::AluOp::kAdd, 1, 2, 128));
  const double ratio =
      static_cast<double>(long_run.stats.cpu_cycles) /
      static_cast<double>(short_run.stats.cpu_cycles);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.2);
}

TEST(CodeStyles, Fig4AppliesFullCrossProduct) {
  const Routine r = make_fig4_regular_routine(rtlgen::AluOp::kAdd);
  const RunResult run = run_routine(r);
  EXPECT_TRUE(run.stats.halted);
  // 32x32 inner iterations plus loop overhead: >= 1024 absorbs, each >= 10
  // cycles through the MISR subroutine.
  EXPECT_GT(run.stats.cpu_cycles, 1024u * 10);
  EXPECT_EQ(run.stats.data_references(), 1u);
  EXPECT_EQ(run.stats.pipeline_stall_cycles, 0u);
}

TEST(CodeStyles, LoopStylesHaveSmallCode) {
  // Figures 2/3/4 share the defining property: compact loops.
  TestProgramBuilder builder;
  EXPECT_LT(builder
                .build_standalone(
                    make_fig3_lfsr_routine(rtlgen::AluOp::kAdd, 1, 2, 4096))
                .sections[0]
                .size_words(),
            40u);
  EXPECT_LT(builder
                .build_standalone(
                    make_fig4_regular_routine(rtlgen::AluOp::kAdd))
                .sections[0]
                .size_words(),
            30u);
}

}  // namespace
}  // namespace sbst::core

// Structural pipeline CPU: ISA semantics, hazard timing, and — the key
// test — architectural equivalence with the functional model over entire
// SBST programs.
#include <gtest/gtest.h>

#include "core/program.hpp"
#include "isa/assembler.hpp"
#include "sim/cpu.hpp"
#include "sim/pipeline.hpp"

namespace sbst::sim {
namespace {

ExecStats run_pipelined(PipelinedCpu& cpu, const std::string& source) {
  const isa::Program p = isa::assemble(source);
  cpu.reset();
  cpu.load(p);
  return cpu.run(0);
}

TEST(Pipeline, BasicArithmeticAndForwarding) {
  PipelinedCpu cpu;
  const ExecStats s = run_pipelined(cpu, R"(
    li $s0, 7
    addu $t0, $s0, $s0     # back-to-back dependence: forwarded, no stall
    addu $t1, $t0, $s0
    xor  $t2, $t1, $t0
    break
  )");
  EXPECT_TRUE(s.halted);
  EXPECT_EQ(cpu.reg(isa::kT0), 14u);
  EXPECT_EQ(cpu.reg(isa::kT1), 21u);
  EXPECT_EQ(cpu.reg(isa::kT2), 21u ^ 14u);
  EXPECT_EQ(s.pipeline_stall_cycles, 0u);
}

TEST(Pipeline, AccessAtTopOfAddressSpaceThrows) {
  // 0xfffffffc + 4 wraps to 0 in 32 bits; the bounds check must not.
  PipelinedCpu cpu;
  cpu.reset();
  EXPECT_THROW(cpu.read_word(0xfffffffcu), CpuError);
  EXPECT_THROW(cpu.write_word(0xfffffffcu, 0), CpuError);
}

TEST(Pipeline, DelaySlotSemantics) {
  PipelinedCpu cpu;
  run_pipelined(cpu, R"(
    li $t0, 1
    beq $zero, $zero, over
    li $t1, 2            # delay slot executes
    li $t2, 3            # skipped
  over:
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 1u);
  EXPECT_EQ(cpu.reg(isa::kT1), 2u);
  EXPECT_EQ(cpu.reg(isa::kT2), 0u);
}

TEST(Pipeline, LoadUseInterlockCostsOneCycle) {
  PipelinedCpu cpu;
  const ExecStats hazard = run_pipelined(cpu, R"(
    li $s3, 0x1000
    lw $t0, 0($s3)
    addu $t1, $t0, $t0
    break
  )");
  EXPECT_EQ(hazard.pipeline_stall_cycles, 1u);
  const ExecStats scheduled = run_pipelined(cpu, R"(
    li $s3, 0x1000
    lw $t0, 0($s3)
    nop
    addu $t1, $t0, $t0
    break
  )");
  EXPECT_EQ(scheduled.pipeline_stall_cycles, 0u);
}

TEST(Pipeline, JalAndJr) {
  PipelinedCpu cpu;
  run_pipelined(cpu, R"(
    jal sub
    nop
    li $t1, 9
    break
  sub:
    li $t0, 4
    jr $ra
    nop
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 4u);
  EXPECT_EQ(cpu.reg(isa::kT1), 9u);
}

TEST(Pipeline, MultDivUnitInterlocks) {
  PipelinedCpu cpu;
  const ExecStats s = run_pipelined(cpu, R"(
    li $s0, 100
    li $s1, 7
    divu $s0, $s1
    mflo $t0
    mfhi $t1
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 14u);
  EXPECT_EQ(cpu.reg(isa::kT1), 2u);
  EXPECT_GT(s.cpu_cycles, 32u);  // serial divider latency is real time
}

// ---- cross-validation against the functional model -------------------------

struct ArchState {
  std::array<std::uint32_t, 32> regs;
  std::uint32_t hi, lo;
  std::vector<std::uint32_t> sig;
};

template <typename AnyCpu>
ArchState capture(AnyCpu& cpu, const core::TestProgram& p) {
  ArchState s{};
  for (unsigned r = 0; r < 32; ++r) s.regs[r] = cpu.reg(r);
  s.hi = cpu.hi();
  s.lo = cpu.lo();
  for (unsigned slot = 0; slot < core::kSignatureSlots; ++slot) {
    s.sig.push_back(cpu.read_word(p.signature_address(slot)));
  }
  return s;
}

class CrossValidation
    : public ::testing::TestWithParam<core::CutId> {};

TEST_P(CrossValidation, RoutineProducesIdenticalArchitecturalState) {
  static core::ProcessorModel model;
  core::Routine routine;
  switch (GetParam()) {
    case core::CutId::kAlu: routine = core::make_alu_routine(); break;
    case core::CutId::kShifter:
      routine = core::make_shifter_routine(model);
      break;
    case core::CutId::kMultiplier:
      routine = core::make_multiplier_routine();
      break;
    case core::CutId::kDivider:
      routine = core::make_divider_routine();
      break;
    case core::CutId::kRegisterFile:
      routine = core::make_regfile_routine();
      break;
    case core::CutId::kMemCtrl:
      routine = core::make_memctrl_routine();
      break;
    default:
      routine = core::make_control_routine();
  }
  core::TestProgramBuilder builder;
  const core::TestProgram p = builder.build_standalone(routine);

  Cpu functional;
  functional.reset();
  functional.load(p.image);
  const ExecStats fs = functional.run(p.entry);

  PipelinedCpu pipelined;
  pipelined.reset();
  pipelined.load(p.image);
  const ExecStats ps = pipelined.run(p.entry);

  ASSERT_TRUE(fs.halted);
  ASSERT_TRUE(ps.halted);
  EXPECT_EQ(fs.instructions, ps.instructions);
  const ArchState a = capture(functional, p);
  const ArchState b = capture(pipelined, p);
  EXPECT_EQ(a.sig, b.sig);      // identical signatures above all
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.lo, b.lo);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(a.regs[r], b.regs[r]) << "$" << r;
  }
  // The timing models are independent but must agree within a small band.
  const double ratio = static_cast<double>(ps.total_cycles()) /
                       static_cast<double>(fs.total_cycles());
  EXPECT_GT(ratio, 0.7) << ps.total_cycles() << " vs " << fs.total_cycles();
  EXPECT_LT(ratio, 1.4) << ps.total_cycles() << " vs " << fs.total_cycles();
}

INSTANTIATE_TEST_SUITE_P(
    AllRoutines, CrossValidation,
    ::testing::Values(core::CutId::kAlu, core::CutId::kShifter,
                      core::CutId::kMultiplier, core::CutId::kDivider,
                      core::CutId::kRegisterFile, core::CutId::kMemCtrl,
                      core::CutId::kControl),
    [](const auto& info) {
      switch (info.param) {
        case core::CutId::kAlu: return "alu";
        case core::CutId::kShifter: return "shifter";
        case core::CutId::kMultiplier: return "mul";
        case core::CutId::kDivider: return "div";
        case core::CutId::kRegisterFile: return "rf";
        case core::CutId::kMemCtrl: return "mem";
        default: return "ctrl";
      }
    });

TEST(CrossValidationFull, CombinedProgramMatches) {
  core::ProcessorModel model;
  core::TestProgramBuilder builder;
  builder.add_default_routines(model);
  const core::TestProgram p = builder.build();

  Cpu functional;
  functional.reset();
  functional.load(p.image);
  functional.run(p.entry);

  PipelinedCpu pipelined;
  pipelined.reset();
  pipelined.load(p.image);
  const ExecStats ps = pipelined.run(p.entry);
  ASSERT_TRUE(ps.halted);

  for (unsigned slot = 0; slot < core::kSignatureSlots; ++slot) {
    EXPECT_EQ(functional.read_word(p.signature_address(slot)),
              pipelined.read_word(p.signature_address(slot)))
        << "slot " << slot;
  }
}

}  // namespace
}  // namespace sbst::sim

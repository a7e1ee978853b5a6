// Nop-insertion scheduling for pipelines without forwarding (paper §3.3).
#include <gtest/gtest.h>

#include "core/program.hpp"
#include "core/schedule.hpp"
#include "sim/cpu.hpp"

namespace sbst::core {
namespace {

TEST(Schedule, InsertsNopsForCloseDependences) {
  const ScheduleResult r = insert_nops_for_no_forwarding(
      "  li   $s0, 5\n"
      "  addu $t0, $s0, $s0\n"   // distance 1 -> needs 2 nops
      "  addu $t1, $t0, $zero\n" // distance 1 -> needs 2 nops
      "  break\n");
  EXPECT_EQ(r.nops_inserted, 4u);
}

TEST(Schedule, LeavesIndependentCodeAlone) {
  const std::string source =
      "  li   $s0, 5\n"
      "  li   $s1, 6\n"
      "  li   $s2, 7\n"
      "  addu $t0, $s0, $zero\n";  // s0 written 3 before: fine
  const ScheduleResult r = insert_nops_for_no_forwarding(source);
  EXPECT_EQ(r.nops_inserted, 0u);
  EXPECT_EQ(r.assembly, source);
}

TEST(Schedule, NeverSplitsBranchFromDelaySlot) {
  const ScheduleResult r = insert_nops_for_no_forwarding(
      "  li   $s0, 1\n"
      "  beq  $s0, $zero, skip\n"  // reads $s0 at distance 1
      "  addu $t0, $zero, $zero\n"
      "skip:\n"
      "  break\n");
  EXPECT_GT(r.nops_inserted, 0u);
  // The nops go before the branch; the slot stays glued to it.
  const std::size_t branch_at = r.assembly.find("beq");
  const std::size_t slot_at = r.assembly.find("addu");
  ASSERT_NE(branch_at, std::string::npos);
  ASSERT_NE(slot_at, std::string::npos);
  const std::string between =
      r.assembly.substr(branch_at, slot_at - branch_at);
  EXPECT_EQ(between.find("nop"), std::string::npos);
}

TEST(Schedule, DelaySlotHazardHoistsNopsAboveBranch) {
  const ScheduleResult r = insert_nops_for_no_forwarding(
      "  li   $s0, 1\n"
      "  b    skip\n"
      "  addu $t0, $s0, $s0\n"  // slot reads $s0 (distance 2 incl. branch)
      "skip:\n"
      "  break\n");
  EXPECT_GE(r.nops_inserted, 1u);
}

TEST(Schedule, ZeroRegisterNeverHazards) {
  const ScheduleResult r = insert_nops_for_no_forwarding(
      "  addu $zero, $s0, $s1\n"
      "  addu $t0, $zero, $zero\n");
  EXPECT_EQ(r.nops_inserted, 0u);
}

class NoForwardingRoutine : public ::testing::TestWithParam<int> {};

TEST_P(NoForwardingRoutine, ScheduledProgramIsStallFreeWithoutForwarding) {
  static ProcessorModel model;
  auto make = [&]() -> Routine {
    switch (GetParam()) {
      case 0: return make_alu_routine();
      case 1: return make_multiplier_routine();
      case 2: return make_divider_routine();
      case 3: return make_memctrl_routine();
      default: return make_control_routine();
    }
  };

  // Reference signatures: plain build on the forwarding CPU.
  TestProgramBuilder plain;
  const TestProgram p_fw = plain.build_standalone(make());
  sim::Cpu fw_cpu;
  fw_cpu.reset();
  fw_cpu.load(p_fw.image);
  ASSERT_TRUE(fw_cpu.run(p_fw.entry).halted);

  // Scheduled build on the no-forwarding CPU.
  CodegenOptions scheduled;
  scheduled.schedule_for_no_forwarding = true;
  TestProgramBuilder sched(scheduled);
  const TestProgram p_nf = sched.build_standalone(make());
  sim::CpuConfig cfg;
  cfg.forwarding = false;
  sim::Cpu nf_cpu(cfg);
  nf_cpu.reset();
  nf_cpu.load(p_nf.image);
  const sim::ExecStats s = nf_cpu.run(p_nf.entry);
  ASSERT_TRUE(s.halted);
  EXPECT_EQ(s.pipeline_stall_cycles, 0u);  // the paper's nop remark, honoured
  // Nops are architecturally transparent: identical signatures.
  for (unsigned slot = 0; slot < kSignatureSlots; ++slot) {
    EXPECT_EQ(nf_cpu.read_word(p_nf.signature_address(slot)),
              fw_cpu.read_word(p_fw.signature_address(slot)))
        << "slot " << slot;
  }
  // And the unscheduled program on the same machine does stall.
  sim::Cpu unscheduled(cfg);
  unscheduled.reset();
  unscheduled.load(p_fw.image);
  EXPECT_GT(unscheduled.run(p_fw.entry).pipeline_stall_cycles, 0u);
}

std::string routine_name(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"alu", "mul", "div", "mem", "ctrl"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Routines, NoForwardingRoutine,
                         ::testing::Values(0, 1, 2, 3, 4), routine_name);

}  // namespace
}  // namespace sbst::core

// CPU simulator: ISA semantics, branch delay slots, timing model, caches,
// and the tracing/override hooks.
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "sim/cpu.hpp"

namespace sbst::sim {
namespace {

using isa::assemble;
using isa::Program;

ExecStats run_program(Cpu& cpu, const std::string& source,
                      std::uint32_t base = 0) {
  const Program p = assemble(source, base);
  cpu.reset();
  cpu.load(p);
  return cpu.run(base);
}

TEST(Cpu, ArithmeticAndLogic) {
  Cpu cpu;
  const ExecStats stats = run_program(cpu, R"(
    li $s0, 0x0000ffff
    li $s1, 0x00ff00ff
    and $t0, $s0, $s1
    or  $t1, $s0, $s1
    xor $t2, $s0, $s1
    nor $t3, $s0, $s1
    addu $t4, $s0, $s1
    subu $t5, $s0, $s1
    slt $t6, $s1, $s0
    sltu $t7, $s0, $s1
    break
  )");
  EXPECT_TRUE(stats.halted);
  EXPECT_EQ(cpu.reg(isa::kT0), 0x000000ffu);
  EXPECT_EQ(cpu.reg(isa::kT1), 0x00ffffffu);
  EXPECT_EQ(cpu.reg(isa::kT2), 0x00ffff00u);
  EXPECT_EQ(cpu.reg(isa::kT3), 0xff000000u);
  EXPECT_EQ(cpu.reg(isa::kT4), 0x010000feu);
  EXPECT_EQ(cpu.reg(isa::kT5), 0xff01ff00u);
  EXPECT_EQ(cpu.reg(isa::kT6), 0u);   // 0xff00ff > 0xffff
  EXPECT_EQ(cpu.reg(isa::kT7), 1u);
}

TEST(Cpu, ImmediateForms) {
  Cpu cpu;
  run_program(cpu, R"(
    addiu $t0, $zero, -5
    slti  $t1, $t0, 0
    sltiu $t2, $t0, 10
    andi  $t3, $t0, 0xff
    ori   $t4, $zero, 0x1234
    xori  $t5, $t4, 0xffff
    lui   $t6, 0x8000
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 0xfffffffbu);
  EXPECT_EQ(cpu.reg(isa::kT1), 1u);
  EXPECT_EQ(cpu.reg(isa::kT2), 0u);  // huge unsigned, not < 10
  EXPECT_EQ(cpu.reg(isa::kT3), 0xfbu);
  EXPECT_EQ(cpu.reg(isa::kT4), 0x1234u);
  EXPECT_EQ(cpu.reg(isa::kT5), 0xedcbu);
  EXPECT_EQ(cpu.reg(isa::kT6), 0x80000000u);
}

TEST(Cpu, Shifts) {
  Cpu cpu;
  run_program(cpu, R"(
    li $s0, 0x80000001
    sll $t0, $s0, 4
    srl $t1, $s0, 4
    sra $t2, $s0, 4
    li $s1, 8
    sllv $t3, $s0, $s1
    srlv $t4, $s0, $s1
    srav $t5, $s0, $s1
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 0x00000010u);
  EXPECT_EQ(cpu.reg(isa::kT1), 0x08000000u);
  EXPECT_EQ(cpu.reg(isa::kT2), 0xf8000000u);
  EXPECT_EQ(cpu.reg(isa::kT3), 0x00000100u);
  EXPECT_EQ(cpu.reg(isa::kT4), 0x00800000u);
  EXPECT_EQ(cpu.reg(isa::kT5), 0xff800000u);
}

TEST(Cpu, MemoryAccessAllSizes) {
  Cpu cpu;
  run_program(cpu, R"(
    li $s3, 0x1000
    li $s0, 0xdeadbeef
    sw $s0, 0($s3)
    lw $t0, 0($s3)
    lb $t1, 0($s3)      # 0xef sign-extended
    lbu $t2, 1($s3)     # 0xbe
    lh $t3, 2($s3)      # 0xdead sign-extended
    lhu $t4, 0($s3)     # 0xbeef
    li $s1, 0x12
    sb $s1, 3($s3)
    lw $t5, 0($s3)
    li $s2, 0x7777
    sh $s2, 0($s3)
    lw $t6, 0($s3)
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 0xdeadbeefu);
  EXPECT_EQ(cpu.reg(isa::kT1), 0xffffffefu);
  EXPECT_EQ(cpu.reg(isa::kT2), 0xbeu);
  EXPECT_EQ(cpu.reg(isa::kT3), 0xffffdeadu);
  EXPECT_EQ(cpu.reg(isa::kT4), 0xbeefu);
  EXPECT_EQ(cpu.reg(isa::kT5), 0x12adbeefu);
  EXPECT_EQ(cpu.reg(isa::kT6), 0x12ad7777u);
}

TEST(Cpu, BranchDelaySlotExecutes) {
  Cpu cpu;
  run_program(cpu, R"(
    li $t0, 1
    beq $zero, $zero, target
    li $t1, 2          # delay slot: must execute
    li $t2, 3          # skipped
  target:
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 1u);
  EXPECT_EQ(cpu.reg(isa::kT1), 2u);
  EXPECT_EQ(cpu.reg(isa::kT2), 0u);
}

TEST(Cpu, LoopWithCounter) {
  Cpu cpu;
  const ExecStats stats = run_program(cpu, R"(
    li $s4, 10
    add $t0, $zero, $zero
    add $s2, $zero, $zero
  loop:
    addiu $s2, $s2, 3
    addiu $t0, $t0, 1
    bne $s4, $t0, loop
    nop                 # delay slot
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 10u);
  EXPECT_EQ(cpu.reg(isa::kS2), 30u);
  // 3 setup + 10*(4 loop) + break = 44 instructions.
  EXPECT_EQ(stats.instructions, 44u);
}

TEST(Cpu, JalAndJr) {
  Cpu cpu;
  run_program(cpu, R"(
    jal func
    nop
    li $t1, 7
    break
  func:
    li $t0, 5
    jr $ra
    nop
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 5u);
  EXPECT_EQ(cpu.reg(isa::kT1), 7u);
  EXPECT_EQ(cpu.reg(isa::kRa), 8u);  // jal at 0 -> return to 8
}

TEST(Cpu, MultDivSemantics) {
  Cpu cpu;
  run_program(cpu, R"(
    li $s0, -6
    li $s1, 7
    mult $s0, $s1
    mflo $t0            # -42
    mfhi $t1            # sign bits
    li $s2, 100
    li $s3, 7
    divu $s2, $s3
    mflo $t2            # 14
    mfhi $t3            # 2
    li $s4, -100
    div $s4, $s3
    mflo $t4            # -14
    mfhi $t5            # -2
    multu $s1, $s1
    mflo $t6            # 49
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), static_cast<std::uint32_t>(-42));
  EXPECT_EQ(cpu.reg(isa::kT1), 0xffffffffu);
  EXPECT_EQ(cpu.reg(isa::kT2), 14u);
  EXPECT_EQ(cpu.reg(isa::kT3), 2u);
  EXPECT_EQ(cpu.reg(isa::kT4), static_cast<std::uint32_t>(-14));
  EXPECT_EQ(cpu.reg(isa::kT5), static_cast<std::uint32_t>(-2));
  EXPECT_EQ(cpu.reg(isa::kT6), 49u);
}

TEST(Cpu, MultHiBits) {
  Cpu cpu;
  run_program(cpu, R"(
    li $s0, 0x10000
    li $s1, 0x10000
    multu $s0, $s1
    mfhi $t0
    mflo $t1
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 1u);
  EXPECT_EQ(cpu.reg(isa::kT1), 0u);
}

TEST(Cpu, DivLatencyChargesCycles) {
  Cpu cpu;  // div_cycles = 32 default
  const ExecStats with_wait = run_program(cpu, R"(
    li $s0, 100
    li $s1, 7
    divu $s0, $s1
    mflo $t0          # must wait ~32 cycles
    break
  )");
  // 5 instructions + ~32 wait cycles.
  EXPECT_GT(with_wait.cpu_cycles, 32u);
  EXPECT_LT(with_wait.cpu_cycles, 45u);

  const ExecStats without_read = run_program(cpu, R"(
    li $s0, 100
    li $s1, 7
    divu $s0, $s1
    break
  )");
  EXPECT_LT(without_read.cpu_cycles, 10u);
}

TEST(Cpu, LoadUseHazardStallsOneCycle) {
  Cpu cpu;
  const ExecStats hazard = run_program(cpu, R"(
    li $s3, 0x1000
    lw $t0, 0($s3)
    addu $t1, $t0, $t0   # load-use: 1 stall
    break
  )");
  EXPECT_EQ(hazard.pipeline_stall_cycles, 1u);

  const ExecStats clean = run_program(cpu, R"(
    li $s3, 0x1000
    lw $t0, 0($s3)
    nop                  # scheduled away
    addu $t1, $t0, $t0
    break
  )");
  EXPECT_EQ(clean.pipeline_stall_cycles, 0u);
}

TEST(Cpu, NoForwardingNeedsMoreStalls) {
  CpuConfig config;
  config.forwarding = false;
  Cpu cpu(config);
  const ExecStats stats = run_program(cpu, R"(
    li $s0, 1
    addu $t0, $s0, $s0   # RAW distance 1 -> 2 stalls
    addu $t1, $t0, $t0   # RAW distance 1 -> 2 stalls
    break
  )");
  EXPECT_GE(stats.pipeline_stall_cycles, 4u);

  Cpu fwd;  // forwarding on: same program, zero stalls
  const ExecStats stats2 = run_program(fwd, R"(
    li $s0, 1
    addu $t0, $s0, $s0
    addu $t1, $t0, $t0
    break
  )");
  EXPECT_EQ(stats2.pipeline_stall_cycles, 0u);
}

TEST(Cpu, CacheMissesChargeMemoryStalls) {
  CpuConfig config;
  config.icache = {.enabled = true, .line_words = 4, .lines = 16,
                   .miss_penalty = 20};
  config.dcache = {.enabled = true, .line_words = 4, .lines = 16,
                   .miss_penalty = 20};
  Cpu cpu(config);
  const ExecStats stats = run_program(cpu, R"(
    li $s3, 0x1000
    lw $t0, 0($s3)
    lw $t1, 4($s3)     # same line: hit
    lw $t2, 8($s3)
    break
  )");
  EXPECT_EQ(stats.dcache_misses, 1u);  // one line fill covers 4 words
  EXPECT_GT(stats.icache_misses, 0u);
  EXPECT_EQ(stats.memory_stall_cycles,
            (stats.icache_misses + stats.dcache_misses) * 20);
}

TEST(Cpu, TemporalLocalityLoopHasLowInstructionMissRate) {
  CpuConfig config;
  config.icache = {.enabled = true, .line_words = 4, .lines = 64,
                   .miss_penalty = 20};
  Cpu cpu(config);
  const ExecStats stats = run_program(cpu, R"(
    li $s4, 100
    add $t0, $zero, $zero
  loop:
    addiu $t0, $t0, 1
    bne $s4, $t0, loop
    nop
    break
  )");
  // The compact loop fits in cache: only compulsory misses.
  EXPECT_LT(static_cast<double>(stats.icache_misses) /
                static_cast<double>(stats.icache_accesses),
            0.02);
}

TEST(Cpu, RegisterZeroStaysZero) {
  Cpu cpu;
  run_program(cpu, R"(
    li $t0, 5
    addu $zero, $t0, $t0
    break
  )");
  EXPECT_EQ(cpu.reg(0), 0u);
}

TEST(Cpu, MaxInstructionLimitStopsRunaway) {
  Cpu cpu;
  const isa::Program p = assemble("loop: b loop\nnop\n");
  cpu.reset();
  cpu.load(p);
  const ExecStats stats = cpu.run(0, 1000);
  EXPECT_FALSE(stats.halted);
  EXPECT_EQ(stats.instructions, 1000u);
}

TEST(Cpu, IllegalInstructionThrows) {
  Cpu cpu;
  cpu.reset();
  cpu.write_word(0, 0xffffffffu);
  EXPECT_THROW(cpu.run(0), CpuError);
}

TEST(Cpu, MisalignedAccessThrows) {
  Cpu cpu;
  EXPECT_THROW(run_program(cpu, R"(
    li $s3, 0x1001
    lw $t0, 0($s3)
  )"),
               CpuError);
}

TEST(Cpu, AccessAtTopOfAddressSpaceThrows) {
  // 0xfffffffc + 4 wraps to 0 in 32 bits; the bounds check must not.
  Cpu cpu;
  cpu.reset();
  EXPECT_THROW(cpu.read_word(0xfffffffcu), CpuError);
  EXPECT_THROW(cpu.write_word(0xfffffffcu, 0), CpuError);
  EXPECT_THROW(run_program(cpu, R"(
    li $s3, -4
    lw $t0, 0($s3)
  )"),
               CpuError);
}

// ---- hooks -----------------------------------------------------------------

struct RecordingHooks : CpuHooks {
  std::vector<std::tuple<rtlgen::AluOp, std::uint32_t, std::uint32_t>> alu;
  std::vector<std::tuple<rtlgen::ShiftOp, std::uint32_t, std::uint32_t>> shifts;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mults;
  std::vector<std::pair<std::uint8_t, std::uint8_t>> control;
  std::size_t mem_events = 0;
  std::size_t regfile_events = 0;

  void on_alu(rtlgen::AluOp op, std::uint32_t a, std::uint32_t b) override {
    alu.emplace_back(op, a, b);
  }
  void on_shift(rtlgen::ShiftOp op, std::uint32_t v,
                std::uint32_t s) override {
    shifts.emplace_back(op, v, s);
  }
  void on_mult(std::uint32_t a, std::uint32_t b) override {
    mults.emplace_back(a, b);
  }
  void on_control(std::uint8_t opcode, std::uint8_t funct) override {
    control.emplace_back(opcode, funct);
  }
  void on_mem(std::uint32_t, std::uint32_t, rtlgen::MemSize, bool, bool,
              std::uint32_t) override {
    ++mem_events;
  }
  void on_regfile(std::uint8_t, std::uint32_t, bool, std::uint8_t,
                  std::uint8_t) override {
    ++regfile_events;
  }
};

TEST(CpuHooksTest, TracesComponentOperands) {
  Cpu cpu;
  RecordingHooks hooks;
  cpu.set_hooks(&hooks);
  run_program(cpu, R"(
    li $s0, 10
    li $s1, 3
    addu $t0, $s0, $s1
    sll $t1, $s0, 2
    mult $s0, $s1
    sw $t0, 0x100($zero)
    break
  )");
  // li assembles to ori (ALU kOr), then the explicit addu, then the store's
  // address add — the shared ALU sees them all, like Plasma's.
  ASSERT_EQ(hooks.alu.size(), 4u);
  EXPECT_EQ(hooks.alu[0], std::make_tuple(rtlgen::AluOp::kOr, 0u, 10u));
  EXPECT_EQ(hooks.alu[2], std::make_tuple(rtlgen::AluOp::kAdd, 10u, 3u));
  EXPECT_EQ(hooks.alu[3], std::make_tuple(rtlgen::AluOp::kAdd, 0u, 0x100u));
  ASSERT_EQ(hooks.shifts.size(), 1u);
  EXPECT_EQ(hooks.shifts[0], std::make_tuple(rtlgen::ShiftOp::kSll, 10u, 2u));
  ASSERT_EQ(hooks.mults.size(), 1u);
  EXPECT_EQ(hooks.mults[0], std::make_pair(10u, 3u));
  EXPECT_EQ(hooks.mem_events, 1u);
  EXPECT_EQ(hooks.regfile_events, 7u);  // one per retired instruction
  EXPECT_EQ(hooks.control.size(), 7u);
}

struct AluCorruptor : CpuHooks {
  std::optional<std::uint32_t> alu_result(rtlgen::AluOp op, std::uint32_t a,
                                          std::uint32_t b) override {
    if (op == rtlgen::AluOp::kAdd) {
      return rtlgen::alu_ref(op, a, b) ^ 1u;  // flip LSB of every add
    }
    return std::nullopt;
  }
};

TEST(CpuHooksTest, ResultOverrideInjectsFaultyBehaviour) {
  Cpu cpu;
  AluCorruptor corruptor;
  cpu.set_hooks(&corruptor);
  run_program(cpu, R"(
    li $s0, 10
    li $s1, 3
    addu $t0, $s0, $s1
    break
  )");
  EXPECT_EQ(cpu.reg(isa::kT0), 12u);  // 13 with flipped LSB
}

}  // namespace
}  // namespace sbst::sim

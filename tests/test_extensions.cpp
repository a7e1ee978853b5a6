// Extension features: transition-fault model, netlist exporters, A-VC
// address routine, branch-prediction timing, XOR-compaction variant.
#include <gtest/gtest.h>

#include "core/codegen.hpp"
#include "core/evaluate.hpp"
#include "core/program.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/export.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/divider.hpp"
#include "sim/cpu.hpp"

namespace sbst {
namespace {

using netlist::Netlist;
using netlist::NetId;

// ---- transition faults -------------------------------------------------------

// A transition fault's stuck value is its captured (faulty) value, so a
// slow-to-rise fault is stuck_value = 0 and a slow-to-fall one 1.
fault::Fault transition_fault(NetId gate, bool slow_to_rise) {
  return {{gate, netlist::Site::kOutputPin}, !slow_to_rise,
          fault::FaultModel::kTransition};
}

// Detected count from the serial oracle, after checking the production
// grader grades every fault identically.
std::size_t transition_detected(const Netlist& nl,
                                const std::vector<fault::Fault>& faults,
                                const fault::PatternSet& ps) {
  const fault::CoverageResult serial = fault::simulate_serial(nl, faults, ps);
  EXPECT_EQ(serial.detected_flags,
            fault::simulate_comb_parallel(nl, faults, ps).detected_flags);
  return serial.detected;
}

TEST(TransitionFaults, RequiresLaunchAndCapturePair) {
  // y = a AND b. STR on y needs: pair with y=0 then y=1.
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId y = nl.and_(a, b);
  nl.output("y", y);
  const std::vector<fault::Fault> str = {transition_fault(y, true)};

  // Rising pair (0,0) -> (1,1): detected.
  fault::PatternSet rising(nl);
  rising.add({{"a", 0}, {"b", 0}});
  rising.add({{"a", 1}, {"b", 1}});
  EXPECT_EQ(transition_detected(nl, str, rising), 1u);

  // Static 1 twice: no transition launched -> undetected.
  fault::PatternSet static1(nl);
  static1.add({{"a", 1}, {"b", 1}});
  static1.add({{"a", 1}, {"b", 1}});
  EXPECT_EQ(transition_detected(nl, str, static1), 0u);

  // Falling pair only: wrong polarity for STR.
  fault::PatternSet falling(nl);
  falling.add({{"a", 1}, {"b", 1}});
  falling.add({{"a", 0}, {"b", 0}});
  EXPECT_EQ(transition_detected(nl, str, falling), 0u);

  // But the falling pair detects the STF fault.
  const std::vector<fault::Fault> stf = {transition_fault(y, false)};
  EXPECT_EQ(transition_detected(nl, stf, falling), 1u);
}

TEST(TransitionFaults, OrderMattersUnlikeStuckAt) {
  Netlist nl;
  const NetId a = nl.input("a");
  nl.output("y", nl.buf(a));
  const fault::FaultUniverse u(nl, fault::FaultModel::kTransition);
  fault::PatternSet good_order(nl), bad_order(nl);
  good_order.add({{"a", 0}});
  good_order.add({{"a", 1}});
  good_order.add({{"a", 0}});
  bad_order.add({{"a", 1}});
  bad_order.add({{"a", 1}});
  bad_order.add({{"a", 0}});  // only the falling pair exists
  EXPECT_GT(transition_detected(nl, u.collapsed(), good_order),
            transition_detected(nl, u.collapsed(), bad_order));
}

TEST(TransitionFaults, CrossBlockPairsAreSeen) {
  // Put the launch in lane 63 and the capture in lane 0 of the next block.
  Netlist nl;
  const NetId a = nl.input("a");
  nl.output("y", nl.buf(a));
  const std::vector<fault::Fault> faults = {transition_fault(a, true)};
  fault::PatternSet ps(nl);
  for (int i = 0; i < 64; ++i) ps.add({{"a", 0}});
  ps.add({{"a", 1}});  // pattern 64 = lane 0 of block 1
  EXPECT_EQ(transition_detected(nl, faults, ps), 1u);
}

TEST(TransitionFaults, CoverageBoundedByStuckAt) {
  const Netlist nl = rtlgen::build_alu({.width = 8});
  fault::FaultUniverse stuck(nl);
  Rng rng(3);
  fault::PatternSet ps(nl);
  for (int i = 0; i < 200; ++i) ps.add_random(rng);
  const auto sa = fault::simulate_comb_parallel(nl, stuck.collapsed(), ps);
  const fault::FaultUniverse transition(nl, fault::FaultModel::kTransition);
  const std::size_t tr = transition_detected(nl, transition.collapsed(), ps);
  ASSERT_EQ(transition.size(), stuck.size());
  // Each transition detection implies the stuck-at detection of its capture
  // pattern; with the same list order the totals must satisfy <=.
  EXPECT_LE(tr, sa.detected);
  EXPECT_GT(100.0 * static_cast<double>(tr) /
                static_cast<double>(transition.size()),
            80.0);  // random pairs still work well at-speed
}

// ---- exporters -----------------------------------------------------------------

TEST(Export, VerilogContainsModulePortsAndGates) {
  const Netlist nl = rtlgen::build_alu({.width = 4});
  const std::string v = netlist::to_verilog(nl, "alu4");
  EXPECT_NE(v.find("module alu4 ("), std::string::npos);
  EXPECT_NE(v.find("input  wire [3:0] a"), std::string::npos);
  EXPECT_NE(v.find("output wire [3:0] result"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_EQ(v.find("clk"), std::string::npos);  // combinational: no clock
  // One primitive/assign per logic gate (spot check count of xor).
  std::size_t xors = 0;
  for (std::size_t at = v.find("\n  xor "); at != std::string::npos;
       at = v.find("\n  xor ", at + 1)) {
    ++xors;
  }
  std::size_t gate_xors = 0;
  for (const auto& g : nl.gates()) {
    gate_xors += g.kind == netlist::GateKind::kXor;
  }
  EXPECT_EQ(xors, gate_xors);
}

TEST(Export, SequentialVerilogHasClockAndRegs) {
  const Netlist nl = rtlgen::build_divider({.width = 4});
  const std::string v = netlist::to_verilog(nl);
  EXPECT_NE(v.find("input  wire clk"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("  reg  "), std::string::npos);
}

TEST(Export, BlifStructure) {
  const Netlist nl = rtlgen::build_alu({.width = 4});
  const std::string b = netlist::to_blif(nl, "alu4");
  EXPECT_EQ(b.find(".model alu4"), 0u);
  EXPECT_NE(b.find(".inputs"), std::string::npos);
  EXPECT_NE(b.find(".outputs"), std::string::npos);
  EXPECT_NE(b.find(".names"), std::string::npos);
  EXPECT_NE(b.find(".end"), std::string::npos);
  EXPECT_EQ(b.find(".latch"), std::string::npos);  // combinational
  const Netlist seq = rtlgen::build_divider({.width = 4});
  EXPECT_NE(netlist::to_blif(seq).find(".latch"), std::string::npos);
}

TEST(Export, NamesAreSanitized) {
  Netlist nl("weird name-1");
  nl.output("x", nl.not_(nl.input("in put")));
  const std::string v = netlist::to_verilog(nl);
  EXPECT_NE(v.find("module weird_name_1"), std::string::npos);
  EXPECT_NE(v.find("in_put"), std::string::npos);
}

// ---- A-VC routine ----------------------------------------------------------------

TEST(AvcRoutine, ImprovesMemCtrlCoverageAtCacheCost) {
  core::ProcessorModel model;
  core::TestProgramBuilder base;
  base.add(core::make_memctrl_routine());
  const core::TestProgram p_base = base.build();

  core::TestProgramBuilder extended;
  extended.add(core::make_memctrl_routine());
  extended.add(core::make_avc_address_routine(21));
  const core::TestProgram p_ext = extended.build();

  core::EvalOptions eval;
  eval.cpu.mem_bytes = 1u << 22;  // room for the walking addresses
  eval.observe_address_outputs = true;  // grade the MAR itself
  const auto ev_base = core::evaluate_program(model, base, p_base, eval);
  const auto ev_ext = core::evaluate_program(model, extended, p_ext, eval);

  // The A-VC sweep must raise memory-controller coverage (the gain is
  // bounded by how many MAR bits the system's memory lets the sweep reach).
  EXPECT_GT(ev_ext.cut(core::CutId::kMemCtrl).coverage.percent(),
            ev_base.cut(core::CutId::kMemCtrl).coverage.percent() + 3.0);
  // ...while making distributed references (the paper's stated cost).
  EXPECT_GT(ev_ext.total.data_references(),
            ev_base.total.data_references() + 20);
}

TEST(AvcRoutine, DistributedReferencesDefeatCacheLocality) {
  core::TestProgramBuilder b;
  const core::TestProgram avc =
      b.build_standalone(core::make_avc_address_routine(19));
  const core::TestProgram mem =
      b.build_standalone(core::make_memctrl_routine());
  sim::CpuConfig cfg;
  cfg.mem_bytes = 1u << 21;
  cfg.dcache = {.enabled = true, .line_words = 4, .lines = 64,
                .miss_penalty = 20};
  auto run = [&](const core::TestProgram& p) {
    sim::Cpu cpu(cfg);
    cpu.reset();
    cpu.load(p.image);
    return cpu.run(p.entry);
  };
  // Every walking address opens a new line (the paired sw/lw on it then
  // hit), so the A-VC sweep pays a compulsory miss per address while the
  // locality-friendly D-VC routine reuses its two test words.
  const sim::ExecStats sa = run(avc);
  const sim::ExecStats sm = run(mem);
  const double avc_rate = static_cast<double>(sa.dcache_misses) /
                          static_cast<double>(sa.dcache_accesses);
  const double mem_rate = static_cast<double>(sm.dcache_misses) /
                          static_cast<double>(sm.dcache_accesses);
  EXPECT_GT(avc_rate, 0.2);
  EXPECT_LT(mem_rate, 0.1);
  EXPECT_GT(sa.dcache_misses, 4 * sm.dcache_misses);
}

// ---- branch-prediction timing -----------------------------------------------------

TEST(BranchPenalty, ChargesStallsOnTakenBranches) {
  const isa::Program p = isa::assemble(R"(
    li $s4, 10
    add $t0, $zero, $zero
  loop:
    addiu $t0, $t0, 1
    bne $s4, $t0, loop
    nop
    break
  )");
  sim::CpuConfig delay_slot;  // Plasma: penalty 0
  sim::CpuConfig predicted;
  predicted.branch_taken_penalty = 2;
  sim::Cpu a(delay_slot), b(predicted);
  a.reset();
  a.load(p);
  b.reset();
  b.load(p);
  const sim::ExecStats sa = a.run(0);
  const sim::ExecStats sb = b.run(0);
  EXPECT_EQ(sa.pipeline_stall_cycles, 0u);
  // 9 taken loop branches x 2 cycles.
  EXPECT_EQ(sb.pipeline_stall_cycles, 18u);
  EXPECT_EQ(sa.instructions, sb.instructions);
}

// ---- compaction variant --------------------------------------------------------------

TEST(Compaction, XorVariantRunsAndDiffersFromMisr) {
  const std::vector<core::AluOpnd> tests = {
      {rtlgen::AluOp::kAdd, 0x1111u, 0x2222u},
      {rtlgen::AluOp::kXor, 0xaaaau, 0x5555u}};
  core::TestProgramBuilder b;
  auto run = [&](core::Compaction c) {
    const core::TestProgram p = b.build_standalone(
        core::make_fig1_immediate_routine(tests, c));
    sim::Cpu cpu;
    cpu.reset();
    cpu.load(p.image);
    cpu.run(p.entry);
    return cpu.read_word(p.signature_address(7));
  };
  const std::uint32_t misr = run(core::Compaction::kMisr);
  const std::uint32_t x = run(core::Compaction::kXorAccumulate);
  EXPECT_NE(misr, 0u);
  EXPECT_NE(x, 0u);
  EXPECT_NE(misr, x);
  // The XOR accumulate is exactly seed ^ r1 ^ r2.
  const std::uint32_t r1 = rtlgen::alu_ref(rtlgen::AluOp::kAdd, 0x1111,
                                           0x2222);
  const std::uint32_t r2 = rtlgen::alu_ref(rtlgen::AluOp::kXor, 0xaaaa,
                                           0x5555);
  EXPECT_EQ(x, core::kMisrSeed ^ r1 ^ r2);
}

}  // namespace
}  // namespace sbst

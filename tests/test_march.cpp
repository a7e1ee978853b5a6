// March algorithms and quantum chunking.
#include <gtest/gtest.h>

#include "core/march.hpp"
#include "core/periodic.hpp"
#include "core/program.hpp"
#include "fault/sim_parallel.hpp"
#include "rtlgen/regfile.hpp"
#include "sim/cpu.hpp"

namespace sbst::core {

// Print a parameterised algorithm by name, not by address, so the test
// names that gtest reports (and CTest discovers) are the same every build.
// Found by ADL, hence outside the unnamed namespace.
static void PrintTo(const MarchAlgorithm* a, std::ostream* os) {
  *os << a->name;
}

namespace {

TEST(March, AlgorithmComplexities) {
  EXPECT_EQ(mats_plus().ops_per_cell(), 5u);
  EXPECT_EQ(march_x().ops_per_cell(), 6u);
  EXPECT_EQ(march_c_minus().ops_per_cell(), 10u);
}

TEST(March, StimulusCycleCountMatchesComplexity) {
  const netlist::Netlist rf = rtlgen::build_regfile({.num_regs = 8,
                                                     .width = 8});
  const auto seq = march_regfile_stimulus(rf, march_c_minus(), 1, 7,
                                          {0x00000000u});
  // 10 ops per cell x 7 cells x 1 background.
  EXPECT_EQ(seq.size(), 70u);
}

class MarchAlgorithmTest
    : public ::testing::TestWithParam<const MarchAlgorithm*> {};

TEST_P(MarchAlgorithmTest, ReachesSolidCoverageOnSmallRegfile) {
  const netlist::Netlist rf = rtlgen::build_regfile({.num_regs = 8,
                                                     .width = 8});
  fault::FaultUniverse u(rf);
  const auto seq = march_regfile_stimulus(rf, *GetParam(), 1, 7,
                                          {0x00000000u, 0x55555555u});
  const auto cov = fault::simulate_seq_parallel(rf, u.collapsed(), seq);
  EXPECT_GT(cov.percent(), 80.0) << GetParam()->name;
}

INSTANTIATE_TEST_SUITE_P(All, MarchAlgorithmTest,
                         ::testing::Values(&mats_plus(), &march_x(),
                                           &march_c_minus()),
                         [](const auto& info) {
                           std::string n = info.param->name;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return n;
                         });

TEST(March, StrongerAlgorithmsCoverMore) {
  const netlist::Netlist rf = rtlgen::build_regfile({.num_regs = 8,
                                                     .width = 8});
  fault::FaultUniverse u(rf);
  auto fc = [&](const MarchAlgorithm& a) {
    const auto seq = march_regfile_stimulus(rf, a, 1, 7, {0u});
    return fault::simulate_seq_parallel(rf, u.collapsed(), seq).percent();
  };
  EXPECT_LE(fc(mats_plus()), fc(march_c_minus()) + 1e-9);
}

TEST(March, RoutineRunsAndIsStallFree) {
  TestProgramBuilder builder;
  const TestProgram p = builder.build_standalone(
      make_march_regfile_routine(march_x()));
  sim::Cpu cpu;
  cpu.reset();
  cpu.load(p.image);
  const sim::ExecStats s = cpu.run(p.entry);
  EXPECT_TRUE(s.halted);
  EXPECT_EQ(s.pipeline_stall_cycles, 0u);
  EXPECT_EQ(s.data_references(), 1u);  // two-phase: only the signature store
  EXPECT_NE(cpu.read_word(p.signature_address(7)), 0u);
}

// ---- quantum chunking ---------------------------------------------------------

TEST(Chunking, SingleChunkWhenProgramFitsQuantum) {
  const ChunkingReport r = chunked_execution(12000, 11400000, 5000, 20000);
  EXPECT_EQ(r.chunks, 1u);
  EXPECT_EQ(r.switch_overhead_cycles, 0u);
  EXPECT_EQ(r.total_cycles, 12000u);
  EXPECT_DOUBLE_EQ(r.overhead_fraction(), 0.0);
}

TEST(Chunking, OverheadGrowsWithChunkCount) {
  // A (hypothetical) 100k-cycle test under a 30k-cycle quantum: 4 chunks,
  // 3 context switches + 3 cache refills.
  const ChunkingReport r = chunked_execution(100000, 30000, 5000, 20000);
  EXPECT_EQ(r.chunks, 4u);
  EXPECT_EQ(r.switch_overhead_cycles, 15000u);
  EXPECT_EQ(r.cache_refill_cycles, 60000u);
  EXPECT_EQ(r.total_cycles, 175000u);
  EXPECT_GT(r.overhead_fraction(), 0.4);
}

TEST(Chunking, RealProgramFitsOneQuantumComfortably) {
  // The paper's argument made executable: the SBST program at 57 MHz fits
  // a 200 ms quantum thousands of times over.
  const std::uint64_t program_cycles = 35000;      // ~ measured with misses
  const std::uint64_t quantum_cycles = 11400000;   // 200 ms @ 57 MHz
  const ChunkingReport r =
      chunked_execution(program_cycles, quantum_cycles, 5000, 20000);
  EXPECT_EQ(r.chunks, 1u);
}

}  // namespace
}  // namespace sbst::core

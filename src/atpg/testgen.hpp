// Test-set generation drivers on top of PODEM.
//
// generate_atpg_tests implements the paper's deterministic-ATPG TPG
// strategy: walk the collapsed fault list, generate a test per undetected
// fault (under the instruction-imposed constraints), random-fill don't
// cares, and fault-simulate each new pattern against the remaining faults
// so that one pattern usually retires many faults (test compaction by fault
// dropping).
//
// generate_random_tests implements the pseudorandom TPG strategy's pattern
// source for coverage analysis: N patterns from the same 32-bit LFSR the
// software routine of Figure 3 implements.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/podem.hpp"
#include "common/lfsr.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"

namespace sbst::atpg {

struct TestGenResult {
  fault::PatternSet patterns;
  fault::CoverageResult coverage;  // over the supplied fault list
  std::size_t atpg_calls = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
};

struct TestGenOptions {
  PodemOptions podem;
  /// Random patterns simulated before any deterministic generation (cheap
  /// pre-drop of the easy faults). 0 disables.
  unsigned random_warmup = 64;
  std::uint64_t seed = 1;
  /// Pre-compiled netlist lent in by a long-lived caller (GradingSession);
  /// must match the netlist under test. nullptr = compile per call.
  const netlist::CompiledNetlist* compiled = nullptr;
};

TestGenResult generate_atpg_tests(const netlist::Netlist& nl,
                                  const std::vector<fault::Fault>& faults,
                                  const InputConstraints& constraints = {},
                                  const TestGenOptions& options = {},
                                  const fault::ObserveSet& observe = {});

/// LFSR-derived pseudorandom patterns. Each primary-input port is fed from
/// an independent software-LFSR stream, mirroring the per-operand LFSR
/// updates of the Figure 3 code style. Constrained inputs keep their fixed
/// values.
fault::PatternSet generate_random_tests(const netlist::Netlist& nl,
                                        std::size_t count,
                                        std::uint32_t seed = 1,
                                        std::uint32_t poly = Lfsr32::kDefaultPoly,
                                        const InputConstraints& constraints = {});

}  // namespace sbst::atpg

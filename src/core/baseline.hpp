// The comparison baseline the paper argues against (§1, refs [5]-[7]):
// functional SBST from randomized instruction sequences (Shen/Abraham
// native-mode style, Batcher/Papachristou instruction randomization,
// Parvathala's FRITS).
//
// make_random_instruction_routine generates a valid, self-contained random
// instruction sequence over a sandboxed register set and data window, then
// dumps the touched registers through the shared software MISR. The paper's
// claim this baseline substantiates: such programs have low development
// cost but need *large* instruction counts (and hence memory footprint and
// execution time) to approach the coverage a structural SBST program gets
// from a few hundred words — making them unsuitable for on-line periodic
// testing.
#pragma once

#include <cstdint>

#include "core/codegen.hpp"

namespace sbst::core {

struct RandomProgramOptions {
  std::size_t instruction_count = 2048;
  std::uint64_t seed = 1;
  /// Byte address / size of the load-store sandbox window.
  std::uint32_t data_base = 0x40000;
  std::uint32_t data_bytes = 256;
  /// Fraction of instructions drawn from each group (rest becomes R-type
  /// arithmetic). Branches are always forward with bounded skip, so the
  /// program provably terminates.
  double shift_fraction = 0.15;
  double muldiv_fraction = 0.08;
  double memory_fraction = 0.12;
  double branch_fraction = 0.08;
  double immediate_fraction = 0.20;
};

/// Generates the functional-baseline routine. The routine is deterministic
/// in `options.seed`, never raises an exception (aligned sandboxed memory
/// accesses only), always terminates, and unloads one signature.
Routine make_random_instruction_routine(const RandomProgramOptions& options);

}  // namespace sbst::core

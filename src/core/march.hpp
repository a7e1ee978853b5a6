// March memory-test algorithms applied to the register file.
//
// The paper tests the register file with a checkerboard pair plus the
// two-phase trick; the memory-test literature's standard answer to the
// same problem is a March algorithm (MATS+, March X, March C-). This
// module provides both, with the same SBST constraints honoured: the
// register file is swept half at a time so the other half can hold the
// MISR state, and reads are observed through instruction operands.
//
// March notation: each element walks the address space up (⇑), down (⇓) or
// in either order (⇕), performing its operation string on every cell, e.g.
// March C-:  ⇕(w0) ⇑(r0,w1) ⇑(r1,w0) ⇓(r0,w1) ⇓(r1,w0) ⇕(r0).
// For a word-oriented register file the 0/1 cell values become data
// backgrounds (0x00000000/0xffffffff, 0x55555555/0xaaaaaaaa, ...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/codegen.hpp"
#include "core/tpg.hpp"

namespace sbst::core {

enum class MarchOp : std::uint8_t { kR0, kW0, kR1, kW1 };
enum class MarchOrder : std::uint8_t { kUp, kDown, kEither };

struct MarchElement {
  MarchOrder order;
  std::vector<MarchOp> ops;
};

struct MarchAlgorithm {
  std::string name;
  std::vector<MarchElement> elements;
  /// Operation count per cell (the classical complexity metric, e.g. 10n
  /// for March C-).
  std::size_t ops_per_cell() const;
};

const MarchAlgorithm& mats_plus();  // 4n
const MarchAlgorithm& march_x();    // 6n
const MarchAlgorithm& march_c_minus();  // 10n

/// Lowers a March algorithm onto the register-file netlist as a sequential
/// stimulus, sweeping registers first..last with the given data
/// backgrounds (each background contributes a full pass; its complement is
/// the "1" value).
fault::SeqStimulus march_regfile_stimulus(
    const netlist::Netlist& regfile, const MarchAlgorithm& algorithm,
    unsigned first, unsigned last,
    const std::vector<std::uint32_t>& backgrounds = {0x00000000u,
                                                     0x55555555u});

/// Generates a self-test routine running the March algorithm over the
/// register file in the paper's two-phase arrangement (low half swept with
/// the MISR in high registers, then vice versa).
Routine make_march_regfile_routine(const MarchAlgorithm& algorithm,
                                   std::uint32_t background = 0x55555555u);

}  // namespace sbst::core

// Test-program assembly: combines self-test routines, the shared MISR
// subroutines and the signature area into one SBST program image (and into
// standalone per-routine programs for per-routine statistics).
//
// Program layout:
//   start:   <routine 1> ... <routine k>   (each ends unloading a signature)
//            break
//   misr:    shared 8-word MISR            (paper §4)
//   misr_lo: low-register mirror
//   signatures: .word 0 x 8                (one per CUT, paper: "7
//                                           signatures ... unloaded to data
//                                           memory for fault detection")
//   <per-routine .word data>
#pragma once

#include <vector>

#include "core/codegen.hpp"
#include "isa/assembler.hpp"

namespace sbst::core {

inline constexpr unsigned kSignatureSlots = 8;

struct TestProgram {
  isa::Program image;
  std::vector<Routine> routines;
  std::uint32_t entry = 0;
  std::uint32_t signature_base = 0;  // byte address of the signature array

  /// Word offsets of each routine inside the image, by routine index.
  struct Section {
    std::uint32_t begin_addr;
    std::uint32_t end_addr;
    std::size_t size_words() const { return (end_addr - begin_addr) / 4; }
  };
  std::vector<Section> sections;

  std::uint32_t signature_address(unsigned slot) const {
    return signature_base + slot * 4;
  }
};

class TestProgramBuilder {
 public:
  explicit TestProgramBuilder(CodegenOptions opts = {}) : opts_(opts) {}

  TestProgramBuilder& add(Routine routine);

  /// All seven Table-1 routines in the paper's priority order.
  TestProgramBuilder& add_default_routines(const ProcessorModel& model);

  /// Assembles the combined program at `base`.
  TestProgram build(std::uint32_t base = 0) const;

  /// Assembles one routine as a standalone program (routine + MISR + break),
  /// used for the per-routine rows of Table 1.
  TestProgram build_standalone(const Routine& routine,
                               std::uint32_t base = 0) const;

 private:
  CodegenOptions opts_;
  std::vector<Routine> routines_;
};

}  // namespace sbst::core

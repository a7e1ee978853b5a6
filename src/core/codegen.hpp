// Phase C of the methodology: self-test routine development (paper §3.3).
//
// Each generator turns a TPG product (regular operand family, constrained
// ATPG set, LFSR parameters) into a MIPS assembly routine in one of the
// paper's code styles:
//
//   Figure 1 — "AtpgD/RegD (I)": patterns applied through immediate
//              instructions (li decomposed to lui/ori), straight-line code.
//   Figure 2 — "AtpgD (L)": patterns stored in data memory, fetched by a
//              compact lw loop.
//   Figure 3 — "PR (L)": software-LFSR loop generating pseudorandom
//              operands.
//   Figure 4 — "RegD (L)": loop generating a regular operand family from
//              an initial value, a final value, and a next-pattern step.
//
// All routines compact responses through the paper's shared 8-word software
// MISR subroutine and finally unload one signature word to the signature
// area. Register conventions follow the paper's figures: $s0/$s1 operands,
// $s2 signature, $s7 polynomial, $t8 response, $t9 scratch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/tpg.hpp"

namespace sbst::core {

/// One self-test routine: a self-contained assembly fragment. It assumes
/// the shared MISR subroutines and the `signatures` data area exist in the
/// surrounding program (the TestProgramBuilder provides both, as does
/// standalone_program()).
struct Routine {
  std::string name;       // label prefix, e.g. "alu"
  CutId target;
  TpgStrategy strategy;
  std::string style;      // Table-1 style tag, e.g. "RegD (L + I)"
  std::string assembly;   // routine body (code)
  std::string data_assembly;  // .word test data, placed after the code
  unsigned sig_slot = 0;  // word index in the signature area
  std::size_t pattern_count = 0;
};

/// The software MISR's initial signature ($s2) and feedback polynomial
/// ($s7, Lfsr32::kDefaultPoly), loaded by every routine before it absorbs
/// its first response.
inline constexpr std::uint32_t kMisrSeed = 0xffffffffu;
inline constexpr std::uint32_t kMisrPoly = 0x80200003u;

struct CodegenOptions {
  /// Insert nops for a pipeline without forwarding (paper §3.3: "nop
  /// instructions are inserted accordingly when forwarding is not
  /// supported"). Applied by TestProgramBuilder to every routine and to the
  /// MISR subroutines at assembly time.
  bool schedule_for_no_forwarding = false;
};

/// Emits the shared MISR subroutines:
///   misr    — paper's 8-word routine on $s2/$s7/$t8/$t9 (high registers)
///   misr_lo — the mirror on $2/$7/$8/$9, used while the high half of the
///             register file is under test
std::string misr_subroutines();

/// Reference model of the signature produced by absorbing `responses` via
/// the misr subroutine (matches common/lfsr.hpp Misr32).
std::uint32_t misr_reference(const std::vector<std::uint32_t>& responses,
                             std::uint32_t seed, std::uint32_t poly);

// ---- per-CUT routine generators (the Table 1 rows) -------------------------

/// ALU: RegD (L + I) — immediate constants + three Figure-4 loops.
Routine make_alu_routine();

/// Shifter: AtpgD (I) — constrained-ATPG patterns through sllv/srlv/srav.
Routine make_shifter_routine(const ProcessorModel& model);

/// Parallel multiplier: RegD (L + I).
Routine make_multiplier_routine();

/// Serial divider: RegD (L + I).
Routine make_divider_routine();

/// Register file: RegD (I), two-phase halves (paper §3.3).
Routine make_regfile_routine();

/// Memory controller: RegD (I) store/load lane sweep.
Routine make_memctrl_routine();

/// Control logic: FT — every supported opcode executed and observed.
Routine make_control_routine();

/// A-VC address routine (deliberately NOT part of the default periodic
/// program, paper §3.2): distributed sw/lw at walking-bit addresses to
/// exercise the memory-address register. Improves memory-controller
/// coverage at the price of cache-hostile distributed references — the
/// trade-off the paper cites for deferring A-VCs. `addr_bits` is the
/// highest address bit swept (the CPU must own 2^(addr_bits+1) bytes).
Routine make_avc_address_routine(unsigned addr_bits = 19);

// ---- code-style studies (Figures 1-4 on a common CUT) -----------------------

/// Response-compaction choice for the immediate code style: the paper's
/// 8-word software MISR subroutine, or a 1-word inline XOR accumulate
/// (cheaper, but order-insensitive and alias-prone — the ablation
/// bench/compaction_ablation quantifies the difference).
enum class Compaction { kMisr, kXorAccumulate };

/// Figure 1: n ALU patterns as immediate instructions.
Routine make_fig1_immediate_routine(const std::vector<AluOpnd>& tests,
                                    Compaction compaction = Compaction::kMisr);
/// Figure 2: the same patterns stored in memory, applied by a fetch loop.
Routine make_fig2_datafetch_routine(const std::vector<AluOpnd>& tests,
                                    rtlgen::AluOp op);
/// Figure 3: software-LFSR loop applying `iterations` pseudorandom pairs
/// to one ALU operation.
Routine make_fig3_lfsr_routine(rtlgen::AluOp op, std::uint32_t seed_x,
                               std::uint32_t seed_y, unsigned iterations);
/// Figure 4: regular deterministic loop (walking-one family) for one op.
Routine make_fig4_regular_routine(rtlgen::AluOp op);

}  // namespace sbst::core

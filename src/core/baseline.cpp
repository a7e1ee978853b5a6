#include "core/baseline.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sbst::core {

namespace {

// Registers the generator may freely clobber. Excluded: $zero, the MISR
// harness ($s2=18, $s7=23, $t8=24, $t9=25), $ra (jal), the sandbox base
// ($sp=29) and $k0/$k1/$gp (26-28).
constexpr int kPool[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                         12, 13, 14, 15, 16, 17, 19, 20, 21, 22, 30};
constexpr std::size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

std::string reg(Rng& rng) {
  return "$" + std::to_string(kPool[rng.below(kPoolSize)]);
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

}  // namespace

Routine make_random_instruction_routine(const RandomProgramOptions& options) {
  Rng rng(options.seed);
  std::string as;
  auto line = [&](const std::string& s) { as += "  " + s + "\n"; };

  line("li   $s7, " + hex(kMisrPoly));
  line("li   $s2, " + hex(kMisrSeed));
  line("li   $sp, " + hex(options.data_base));
  // Seed the sandbox registers with random values.
  for (int r : kPool) {
    line("li   $" + std::to_string(r) + ", " + hex(rng.next32()));
  }

  const std::uint32_t words = options.data_bytes / 4;
  unsigned label_counter = 0;
  std::size_t emitted = 0;

  // One random, architecturally safe instruction.
  auto random_arith = [&]() {
    static const char* kOps[] = {"addu", "subu", "and", "or",
                                 "xor",  "nor",  "slt", "sltu"};
    line(std::string(kOps[rng.below(8)]) + " " + reg(rng) + ", " + reg(rng) +
         ", " + reg(rng));
    ++emitted;
  };

  while (emitted < options.instruction_count) {
    const double dice = static_cast<double>(rng.next32()) / 4294967296.0;
    double edge = options.shift_fraction;
    if (dice < edge) {
      if (rng.chance(0.5)) {
        static const char* kShifts[] = {"sll", "srl", "sra"};
        line(std::string(kShifts[rng.below(3)]) + " " + reg(rng) + ", " +
             reg(rng) + ", " + std::to_string(rng.below(32)));
      } else {
        static const char* kShiftVs[] = {"sllv", "srlv", "srav"};
        line(std::string(kShiftVs[rng.below(3)]) + " " + reg(rng) + ", " +
             reg(rng) + ", " + reg(rng));
      }
      ++emitted;
      continue;
    }
    edge += options.muldiv_fraction;
    if (dice < edge) {
      static const char* kMd[] = {"mult", "multu", "div", "divu"};
      line(std::string(kMd[rng.below(4)]) + " " + reg(rng) + ", " + reg(rng));
      line((rng.chance(0.5) ? "mflo " : "mfhi ") + reg(rng));
      emitted += 2;
      continue;
    }
    edge += options.memory_fraction;
    if (dice < edge) {
      const unsigned kind = static_cast<unsigned>(rng.below(4));
      if (kind == 0) {
        const std::uint32_t off = 4 * static_cast<std::uint32_t>(
                                          rng.below(words));
        line((rng.chance(0.5) ? "sw   " : "lw   ") + reg(rng) + ", " +
             std::to_string(off) + "($sp)");
      } else if (kind == 1) {
        const std::uint32_t off = static_cast<std::uint32_t>(
            rng.below(options.data_bytes));
        static const char* kByte[] = {"sb", "lb", "lbu"};
        line(std::string(kByte[rng.below(3)]) + "   " + reg(rng) + ", " +
             std::to_string(off) + "($sp)");
      } else {
        const std::uint32_t off = 2 * static_cast<std::uint32_t>(
                                          rng.below(options.data_bytes / 2));
        static const char* kHalf[] = {"sh", "lh", "lhu"};
        line(std::string(kHalf[rng.below(3)]) + "   " + reg(rng) + ", " +
             std::to_string(off) + "($sp)");
      }
      ++emitted;
      continue;
    }
    edge += options.branch_fraction;
    if (dice < edge) {
      // Forward branch over 1..3 instructions; delay slot always filled.
      const std::string label = "rnd_" + std::to_string(label_counter++);
      line((rng.chance(0.5) ? "beq  " : "bne  ") + reg(rng) + ", " +
           reg(rng) + ", " + label);
      ++emitted;
      random_arith();  // delay slot
      const std::size_t skip = 1 + rng.below(3);
      for (std::size_t i = 0; i < skip; ++i) random_arith();
      as += label + ":\n";
      continue;
    }
    edge += options.immediate_fraction;
    if (dice < edge) {
      const unsigned kind = static_cast<unsigned>(rng.below(7));
      static const char* kImm[] = {"addiu", "slti", "sltiu", "andi",
                                   "ori",   "xori", "lui"};
      const char* op = kImm[kind];
      if (kind <= 2) {  // signed immediates
        line(std::string(op) + " " + reg(rng) + ", " + reg(rng) + ", " +
             std::to_string(static_cast<std::int32_t>(rng.next32() % 0x8000) -
                            0x4000));
      } else if (kind == 6) {
        line(std::string(op) + "  " + reg(rng) + ", " +
             hex(rng.next32() & 0xffff));
      } else {
        line(std::string(op) + " " + reg(rng) + ", " + reg(rng) + ", " +
             hex(rng.next32() & 0xffff));
      }
      ++emitted;
      continue;
    }
    random_arith();
  }

  // Observe: dump every sandbox register through the MISR.
  for (int r : kPool) {
    line("jal  misr");
    line("addu $t8, $" + std::to_string(r) + ", $zero");
  }
  line("la   $s6, signatures");
  line("sw   $s2, 28($s6)");

  return {.name = "rnd",
          .target = CutId::kControl,  // functional: no single target
          .strategy = TpgStrategy::kPseudorandom,
          .style = "functional random (baseline)",
          .assembly = std::move(as),
          .sig_slot = 7,
          .pattern_count = emitted};
}

}  // namespace sbst::core

#include "core/codegen.hpp"

#include <array>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "atpg/testgen.hpp"
#include "common/bits.hpp"
#include "common/lfsr.hpp"
#include "fault/fault.hpp"
#include "rtlgen/control.hpp"

namespace sbst::core {

using rtlgen::AluOp;
using rtlgen::ShiftOp;

namespace {

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

/// Assembly text builder with printf-style lines.
class Asm {
 public:
  void line(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    char buf[256];
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    out_ += "  ";
    out_ += buf;
    out_ += '\n';
  }
  void label(const std::string& name) { out_ += name + ":\n"; }
  void comment(const std::string& text) { out_ += "  # " + text + "\n"; }
  void raw(const std::string& text) { out_ += text; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

const char* alu_mnemonic(AluOp op) {
  switch (op) {
    case AluOp::kAnd: return "and";
    case AluOp::kOr: return "or";
    case AluOp::kXor: return "xor";
    case AluOp::kNor: return "nor";
    case AluOp::kAdd: return "addu";
    case AluOp::kSub: return "subu";
    case AluOp::kSlt: return "slt";
    case AluOp::kSltu: return "sltu";
  }
  return "?";
}

const char* shiftv_mnemonic(ShiftOp op) {
  switch (op) {
    case ShiftOp::kSll: return "sllv";
    case ShiftOp::kSrl: return "srlv";
    case ShiftOp::kSra: return "srav";
  }
  return "?";
}

/// Manages a pool of scratch registers preloaded with constants, so each
/// straight-line pattern costs two words (jal + operation in the delay
/// slot) instead of up to six.
class ConstPool {
 public:
  explicit ConstPool(Asm& as) : as_(&as) {
    // $zero serves constant 0 for free.
    values_[0] = "$zero";
  }

  /// Returns a register holding `value`, preloading it on first use.
  std::string reg(std::uint32_t value) {
    auto it = values_.find(value);
    if (it != values_.end()) return it->second;
    if (next_ >= kPool.size()) {
      throw std::logic_error("ConstPool: out of scratch registers");
    }
    const std::string r = kPool[next_++];
    as_->line("li   %s, %s", r.c_str(), hex(value).c_str());
    values_[value] = r;
    return r;
  }

 private:
  static constexpr std::array<const char*, 14> kPool = {
      "$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
      "$a0", "$a1", "$a2", "$a3", "$v0", "$v1"};
  Asm* as_;
  std::size_t next_ = 0;
  std::map<std::uint32_t, std::string> values_;
};

void emit_seed(Asm& as) {
  as.line("li   $s7, %s", hex(kMisrPoly).c_str());
  as.line("li   $s2, %s", hex(kMisrSeed).c_str());
}

void emit_unload(Asm& as, unsigned slot) {
  as.line("la   $s6, signatures");
  as.line("sw   $s2, %u($s6)", slot * 4);
}

/// jal misr with `apply` in the branch delay slot — the canonical two-word
/// apply-and-compact step used throughout the routines.
void emit_absorb(Asm& as, const std::string& apply) {
  as.line("jal  misr");
  as.line("%s", apply.c_str());
}

}  // namespace

std::string misr_subroutines() {
  Asm as;
  as.comment("shared software MISR (8 words): absorbs $t8 into $s2, poly $s7");
  as.label("misr");
  as.line("andi $t9, $s2, 1");
  as.line("srl  $s2, $s2, 1");
  as.line("beq  $t9, $zero, misr_skip");
  as.line("nop");
  as.line("xor  $s2, $s2, $s7");
  as.label("misr_skip");
  as.line("xor  $s2, $s2, $t8");
  as.line("jr   $ra");
  as.line("nop");
  as.comment("mirror MISR on low registers ($2 sig, $7 poly, $8 resp, $9 scratch)");
  as.label("misr_lo");
  as.line("andi $9, $2, 1");
  as.line("srl  $2, $2, 1");
  as.line("beq  $9, $zero, misr_lo_skip");
  as.line("nop");
  as.line("xor  $2, $2, $7");
  as.label("misr_lo_skip");
  as.line("xor  $2, $2, $8");
  as.line("jr   $ra");
  as.line("nop");
  return as.take();
}

std::uint32_t misr_reference(const std::vector<std::uint32_t>& responses,
                             std::uint32_t seed, std::uint32_t poly) {
  Misr32 misr(seed, poly);
  for (std::uint32_t r : responses) misr.absorb(r);
  return misr.signature();
}

// ---------------------------------------------------------------- ALU ------

Routine make_alu_routine() {
  Asm as;
  as.comment("ALU self-test: RegD (L + I)");
  emit_seed(as);
  ConstPool pool(as);

  const auto tests = regular_alu_tests(32);
  const std::size_t n_linear = 6u * 32;  // trailing loop families
  const std::size_t n_const = tests.size() - n_linear;

  for (std::size_t i = 0; i < n_const; ++i) {
    const AluOpnd& t = tests[i];
    const std::string ra = pool.reg(t.a);
    const std::string rb = pool.reg(t.b);
    emit_absorb(as, std::string(alu_mnemonic(t.op)) + " $t8, " + ra + ", " +
                        rb);
  }

  // Figure-4 loops for the linear families.
  const std::string ones = pool.reg(0xffffffffu);
  as.comment("carry generate per bit: add(1<<i, 1<<i)");
  as.line("li   $s0, 1");
  as.label("alu_gen");
  emit_absorb(as, "addu $t8, $s0, $s0");
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, alu_gen");
  as.line("nop");
  as.comment("carry propagate: add(ones, 1<<i)");
  as.line("li   $s0, 1");
  as.label("alu_prop");
  emit_absorb(as, "addu $t8, " + ones + ", $s0");
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, alu_prop");
  as.line("nop");
  as.comment("borrow through each bit: sub(0, 1<<i)");
  as.line("li   $s0, 1");
  as.label("alu_borrow");
  emit_absorb(as, "subu $t8, $zero, $s0");
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, alu_borrow");
  as.line("nop");
  as.comment("carry chain of every prefix length: add(low_mask(i+1), 1)");
  const std::string one = pool.reg(1u);
  as.line("li   $s0, 1");
  as.label("alu_chain");
  emit_absorb(as, "addu $t8, $s0, " + one);
  as.line("sll  $s0, $s0, 1");
  as.line("ori  $s0, $s0, 1");
  as.line("bne  $s0, %s, alu_chain", ones.c_str());
  as.line("nop");
  as.comment("carry chain with one kill: add(ones ^ (1<<i), 1)");
  as.line("li   $s1, 1");
  as.label("alu_hole");
  as.line("xor  $s0, %s, $s1", ones.c_str());
  emit_absorb(as, "addu $t8, $s0, " + one);
  as.line("sll  $s1, $s1, 1");
  as.line("bne  $s1, $zero, alu_hole");
  as.line("nop");
  as.comment("generate at i, propagate above: add(-(1<<i), 1<<i)");
  as.line("li   $s1, 1");
  as.label("alu_genprop");
  as.line("subu $s0, $zero, $s1");
  emit_absorb(as, "addu $t8, $s0, $s1");
  as.line("sll  $s1, $s1, 1");
  as.line("bne  $s1, $zero, alu_genprop");
  as.line("nop");

  emit_unload(as, 5);
  return {.name = "alu",
          .target = CutId::kAlu,
          .strategy = TpgStrategy::kRegularDeterministic,
          .style = "RegD (L + I)",
          .assembly = as.take(),
          .sig_slot = 5,
          .pattern_count = tests.size()};
}

// ------------------------------------------------------------- shifter -----

// PODEM settings of the shifter's constrained ATPG. A small random warmup
// retires the easy faults before deterministic generation: 8 patterns
// minimise the total routine size (0 leaves more work to PODEM, 32+ adds
// dead code). Each shift op's pass is seeded kShifterAtpgSeed + op.
constexpr unsigned kShifterBacktrackLimit = 20000;
constexpr unsigned kShifterRandomWarmup = 8;
constexpr std::uint64_t kShifterAtpgSeed = 1;

Routine make_shifter_routine(const ProcessorModel& model) {
  const netlist::Netlist& nl = model.component(CutId::kShifter).netlist;
  fault::FaultUniverse universe(nl);

  Asm as;
  as.comment("Shifter self-test: AtpgD (I), constrained ATPG per shift op");
  emit_seed(as);

  std::vector<fault::Fault> remaining = universe.collapsed();
  std::size_t patterns = 0;
  for (ShiftOp op : {ShiftOp::kSll, ShiftOp::kSrl, ShiftOp::kSra}) {
    atpg::InputConstraints cons;
    cons.fix_port(nl, "op", static_cast<std::uint64_t>(op));
    atpg::TestGenOptions tg;
    tg.podem.backtrack_limit = kShifterBacktrackLimit;
    tg.random_warmup = kShifterRandomWarmup;
    tg.seed = kShifterAtpgSeed + static_cast<std::uint64_t>(op);
    const atpg::TestGenResult res =
        atpg::generate_atpg_tests(nl, remaining, cons, tg);

    as.comment(std::string("patterns via ") + shiftv_mnemonic(op));
    for (std::size_t i = 0; i < res.patterns.size(); ++i) {
      const std::uint32_t value =
          static_cast<std::uint32_t>(res.patterns.value_of(i, "a"));
      const std::uint32_t shamt =
          static_cast<std::uint32_t>(res.patterns.value_of(i, "shamt"));
      as.line("li   $s0, %s", hex(value).c_str());
      as.line("li   $s1, %u", shamt);
      emit_absorb(as,
                  std::string(shiftv_mnemonic(op)) + " $t8, $s0, $s1");
      ++patterns;
    }
    // Only faults this op's set left undetected go to the next op.
    std::vector<fault::Fault> next;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (!res.coverage.detected_flags[i]) next.push_back(remaining[i]);
    }
    remaining = std::move(next);
    if (remaining.empty()) break;
  }

  emit_unload(as, 4);
  return {.name = "shifter",
          .target = CutId::kShifter,
          .strategy = TpgStrategy::kAtpgDeterministic,
          .style = "AtpgD (I)",
          .assembly = as.take(),
          .sig_slot = 4,
          .pattern_count = patterns};
}

// ---------------------------------------------------------- multiplier -----

// Pseudorandom operand pairs of the multiplier's Figure-3 mop-up loop.
constexpr unsigned kMulMopUpIterations = 128;

Routine make_multiplier_routine() {
  Asm as;
  as.comment("Parallel multiplier self-test: RegD (L + I)");
  emit_seed(as);
  ConstPool pool(as);
  const std::string ones = pool.reg(0xffffffffu);

  auto absorb_hilo = [&](const std::string& start) {
    as.line("%s", start.c_str());
    emit_absorb(as, "mflo $t8");
    emit_absorb(as, "mfhi $t8");
  };

  as.comment("one partial-product row at a time: mult(1<<i, ones)");
  as.line("li   $s0, 1");
  as.label("mul_row");
  absorb_hilo("multu $s0, " + ones);
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, mul_row");
  as.line("nop");

  as.comment("one column at a time: mult(ones, 1<<i)");
  as.line("li   $s0, 1");
  as.label("mul_col");
  absorb_hilo("multu " + ones + ", $s0");
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, mul_col");
  as.line("nop");

  as.comment("diagonal: mult(1<<i, 1<<i)");
  as.line("li   $s0, 1");
  as.label("mul_diag");
  absorb_hilo("multu $s0, $s0");
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, mul_diag");
  as.line("nop");

  const auto tests = regular_multiplier_tests(32);
  as.comment("constant corner patterns");
  for (std::size_t i = 3u * 32; i < tests.size(); ++i) {
    const MulOpnd& t = tests[i];
    absorb_hilo("multu " + pool.reg(t.a) + ", " + pool.reg(t.b));
  }

  // The array's leftover faults are not random-resistant, just operand-
  // diverse: a short Figure-3 pseudorandom loop mops them up (strategy
  // mixing per the paper's applicability discussion).
  as.comment("pseudorandom mop-up loop (software LFSR)");
  as.line("li   $s0, 0x1d872b41");
  as.line("li   $s1, 0x9e3779b9");
  as.line("li   $s5, %u", kMulMopUpIterations);
  as.line("add  $s4, $zero, $zero");
  as.label("mul_pr");
  as.line("andi $t9, $s0, 1");
  as.line("srl  $s0, $s0, 1");
  as.line("beq  $t9, $zero, mul_prx");
  as.line("nop");
  as.line("xor  $s0, $s0, $s7");
  as.label("mul_prx");
  as.line("andi $t9, $s1, 1");
  as.line("srl  $s1, $s1, 1");
  as.line("beq  $t9, $zero, mul_pry");
  as.line("nop");
  as.line("xor  $s1, $s1, $s7");
  as.label("mul_pry");
  as.line("addiu $s4, $s4, 1");
  absorb_hilo("multu $s0, $s1");
  as.line("bne  $s5, $s4, mul_pr");
  as.line("nop");

  emit_unload(as, 0);
  return {.name = "mul",
          .target = CutId::kMultiplier,
          .strategy = TpgStrategy::kRegularDeterministic,
          .style = "RegD (L+I) + PR",
          .assembly = as.take(),
          .sig_slot = 0,
          .pattern_count = tests.size() + kMulMopUpIterations};
}

// -------------------------------------------------------------- divider ----

Routine make_divider_routine() {
  Asm as;
  as.comment("Serial divider self-test: RegD (L + I)");
  emit_seed(as);
  ConstPool pool(as);
  const std::string ones = pool.reg(0xffffffffu);
  const std::string one = pool.reg(1u);

  auto absorb_qr = [&](const std::string& start) {
    as.line("%s", start.c_str());
    emit_absorb(as, "mflo $t8");  // quotient
    emit_absorb(as, "mfhi $t8");  // remainder
  };

  as.comment("walking dividend: divu(1<<i, 1)");
  as.line("li   $s0, 1");
  as.label("div_wd");
  absorb_qr("divu $s0, " + one);
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, div_wd");
  as.line("nop");

  as.comment("walking divisor: divu(ones, 1<<i)");
  as.line("li   $s0, 1");
  as.label("div_wv");
  absorb_qr("divu " + ones + ", $s0");
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, div_wv");
  as.line("nop");

  as.comment("walking remainder: divu(low_mask(i+1), ones)");
  as.line("li   $s0, 1");
  as.label("div_wr");
  absorb_qr("divu $s0, " + ones);
  as.line("sll  $s0, $s0, 1");
  as.line("ori  $s0, $s0, 1");
  as.line("bne  $s0, %s, div_wr", ones.c_str());
  as.line("nop");

  const auto tests = regular_divider_tests(32);
  const std::size_t n_linear = 1u + 3u * 32;  // all-ones + walks
  as.comment("constant corner patterns");
  for (std::size_t i = n_linear; i < tests.size(); ++i) {
    const DivOpnd& t = tests[i];
    absorb_qr("divu " + pool.reg(t.dividend) + ", " + pool.reg(t.divisor));
  }

  emit_unload(as, 1);
  return {.name = "div",
          .target = CutId::kDivider,
          .strategy = TpgStrategy::kRegularDeterministic,
          .style = "RegD (L + I)",
          .assembly = as.take(),
          .sig_slot = 1,
          .pattern_count = tests.size()};
}

// -------------------------------------------------------- register file ----

Routine make_regfile_routine() {
  Asm as;
  as.comment("Register file self-test: RegD (I), two phases (paper 3.3)");
  as.comment("phase 1: low half $1..$15 under test, MISR in high registers");
  emit_seed(as);

  unsigned label_counter = 0;
  auto inline_absorb_lo = [&](unsigned reg) {
    // Inline MISR on low registers: sig $2, poly $7, scratch $9.
    const std::string skip =
        "rf_sk" + std::to_string(label_counter++);
    as.line("andi $9, $2, 1");
    as.line("srl  $2, $2, 1");
    as.line("beq  $9, $zero, %s", skip.c_str());
    as.line("nop");
    as.line("xor  $2, $2, $7");
    as.label(skip);
    as.line("xor  $2, $2, $%u", reg);
  };
  auto hash = [](unsigned r) { return 0x9e3779b9u * r + 0x01010101u; };

  // ---- phase 1: test $1..$15 ----------------------------------------------
  // Checkerboard alternating across registers: neighbouring registers hold
  // complementary data, so every paired read drives both read-port mux
  // trees with distinguishable values; the second pass complements, giving
  // each cell both polarities.
  for (unsigned pass = 0; pass < 2; ++pass) {
    for (unsigned r = 1; r <= 15; ++r) {
      const std::uint32_t data =
          ((r & 1u) != 0) == (pass == 0) ? 0x55555555u : 0xaaaaaaaau;
      as.line("li   $%u, %s", r, hex(data).c_str());
    }
    for (unsigned r = 1; r <= 15; ++r) {
      const unsigned other = r == 15 ? 1 : r + 1;
      emit_absorb(as, pass == 0
                          ? "addu $t8, $" + std::to_string(r) + ", $" +
                                std::to_string(other)
                          : "addu $t8, $" + std::to_string(other) + ", $" +
                                std::to_string(r));
    }
  }
  as.comment("unique value per register: exposes write-decoder aliasing");
  for (unsigned r = 1; r <= 15; ++r) {
    as.line("li   $%u, %s", r, hex(hash(r)).c_str());
  }
  // Paired reads drive both ports with distinguishable data at once.
  for (unsigned r = 1; r <= 15; ++r) {
    const unsigned other = r == 1 ? 15 : r - 1;
    emit_absorb(as, "addu $t8, $" + std::to_string(r) + ", $" +
                        std::to_string(other));
  }
  for (unsigned r = 1; r <= 15; ++r) {
    const unsigned other = (r ^ 8u) == 0 ? 15 : (r ^ 8u);
    emit_absorb(as, "xor  $t8, $" + std::to_string(r) + ", $" +
                        std::to_string(other));
  }

  as.comment("phase 2: high half under test, MISR moves to low registers");
  as.line("addu $2, $s2, $zero");  // carry the signature over
  as.line("addu $7, $s7, $zero");  // and the polynomial
  // Registers 16..30 absorb through the mirrored subroutine ($31 is the
  // return address of jal and is tested inline afterwards).
  auto absorb_lo = [&](const std::string& apply) {
    as.line("jal  misr_lo");
    as.line("%s", apply.c_str());
  };
  for (unsigned pass = 0; pass < 2; ++pass) {
    for (unsigned r = 16; r <= 30; ++r) {
      const std::uint32_t data =
          ((r & 1u) != 0) == (pass == 0) ? 0x55555555u : 0xaaaaaaaau;
      as.line("li   $%u, %s", r, hex(data).c_str());
    }
    for (unsigned r = 16; r <= 30; ++r) {
      const unsigned other = r == 30 ? 16 : r + 1;
      absorb_lo(pass == 0 ? "addu $8, $" + std::to_string(r) + ", $" +
                                std::to_string(other)
                          : "addu $8, $" + std::to_string(other) + ", $" +
                                std::to_string(r));
    }
  }
  as.comment("unique values, high half");
  for (unsigned r = 16; r <= 30; ++r) {
    as.line("li   $%u, %s", r, hex(hash(r)).c_str());
  }
  for (unsigned r = 16; r <= 30; ++r) {
    const unsigned other = r == 16 ? 30 : r - 1;
    absorb_lo("addu $8, $" + std::to_string(r) + ", $" +
              std::to_string(other));
  }
  for (unsigned r = 16; r <= 30; ++r) {
    unsigned other = 16 + ((r - 16) ^ 8u) % 15;
    if (other == r) other = 30;
    absorb_lo("xor  $8, $" + std::to_string(r) + ", $" +
              std::to_string(other));
  }
  as.comment("register $31 tested inline (it is the jal link register)");
  for (std::uint32_t pattern :
       {0x55555555u, 0xaaaaaaaau, hash(31)}) {
    as.line("li   $31, %s", hex(pattern).c_str());
    inline_absorb_lo(31);
  }

  as.line("la   $5, signatures");
  as.line("sw   $2, %u($5)", 2u * 4);
  Routine r{.name = "rf",
            .target = CutId::kRegisterFile,
            .strategy = TpgStrategy::kRegularDeterministic,
            .style = "RegD (I)",
            .assembly = as.take(),
            .sig_slot = 2,
            .pattern_count = 3u * 31};
  return r;
}

// ---------------------------------------------------- memory controller ----

Routine make_memctrl_routine() {
  Asm as;
  as.comment("Memory controller self-test: RegD (I) lane sweep");
  emit_seed(as);
  as.line("la   $s3, memtest_data");

  std::size_t patterns = 0;
  auto store = [&](const char* op, std::uint32_t data, unsigned off) {
    as.line("li   $s0, %s", hex(data).c_str());
    as.line("%-4s $s0, %u($s3)", op, off);
    ++patterns;
  };
  auto load = [&](const char* op, unsigned off) {
    emit_absorb(as, std::string(op) + " $t8, " + std::to_string(off) +
                        "($s3)");
    ++patterns;
  };

  as.comment("word lanes");
  for (std::uint32_t data :
       {0x55555555u, 0xaaaaaaaau, 0xffffffffu, 0x00000000u}) {
    store("sw", data, 0);
    load("lw", 0);
  }
  as.comment("byte lanes: replication, enables, extraction, sign extension");
  store("sw", 0xa5a5a5a5u, 0);
  for (unsigned off = 0; off < 4; ++off) {
    load("lb", off);   // sign extend 0xa5
    load("lbu", off);
  }
  store("sw", 0x5a5a5a5au, 0);
  for (unsigned off = 0; off < 4; ++off) {
    store("sb", 0x55u + off, off);
    load("lbu", off);
    load("lb", off);
  }
  as.comment("half lanes");
  store("sw", 0x8000ffffu, 0);
  load("lh", 0);
  load("lhu", 0);
  load("lh", 2);
  load("lhu", 2);
  for (unsigned off : {0u, 2u}) {
    store("sh", 0x5555u, off);
    load("lhu", off);
    store("sh", 0xaaaau, off);
    load("lh", off);
  }
  as.comment("second word keeps a background pattern under byte writes");
  store("sw", 0x33cc33ccu, 4);
  store("sb", 0xffu, 5);
  load("lw", 4);

  emit_unload(as, 3);
  Routine r{.name = "mem",
            .target = CutId::kMemCtrl,
            .strategy = TpgStrategy::kRegularDeterministic,
            .style = "RegD (I)",
            .assembly = as.take(),
            .sig_slot = 3,
            .pattern_count = patterns};
  r.data_assembly = "memtest_data:\n  .word 0, 0\n";
  return r;
}

// ------------------------------------------------------------- control -----

Routine make_control_routine() {
  Asm as;
  as.comment("Control logic functional test: every supported opcode");
  emit_seed(as);
  as.line("li   $s0, 0x12345678");
  as.line("li   $s1, 0x00000007");

  as.comment("R-type ALU group");
  for (const char* op : {"add", "addu", "sub", "subu", "and", "or", "xor",
                         "nor", "slt", "sltu"}) {
    emit_absorb(as, std::string(op) + " $t8, $s0, $s1");
  }
  as.comment("shifts, immediate and variable");
  for (const char* op : {"sll", "srl", "sra"}) {
    emit_absorb(as, std::string(op) + " $t8, $s0, 5");
  }
  for (const char* op : {"sllv", "srlv", "srav"}) {
    emit_absorb(as, std::string(op) + " $t8, $s0, $s1");
  }
  as.comment("immediate ALU group");
  emit_absorb(as, "addi $t8, $s0, 0x123");
  emit_absorb(as, "addiu $t8, $s0, -0x123");
  emit_absorb(as, "slti $t8, $s0, 0x7fff");
  emit_absorb(as, "sltiu $t8, $s0, 0x7fff");
  emit_absorb(as, "andi $t8, $s0, 0xf0f0");
  emit_absorb(as, "ori  $t8, $s0, 0x0f0f");
  emit_absorb(as, "xori $t8, $s0, 0xffff");
  emit_absorb(as, "lui  $t8, 0xa55a");
  as.comment("multiply/divide and HI/LO moves");
  as.line("mult $s0, $s1");
  emit_absorb(as, "mflo $t8");
  emit_absorb(as, "mfhi $t8");
  as.line("multu $s0, $s1");
  emit_absorb(as, "mflo $t8");
  as.line("div  $s0, $s1");
  emit_absorb(as, "mflo $t8");
  emit_absorb(as, "mfhi $t8");
  as.line("divu $s0, $s1");
  emit_absorb(as, "mfhi $t8");
  as.line("mthi $s0");
  emit_absorb(as, "mfhi $t8");
  as.line("mtlo $s1");
  emit_absorb(as, "mflo $t8");
  as.comment("memory opcodes");
  as.line("la   $s3, ctrl_data");
  as.line("sw   $s0, 0($s3)");
  emit_absorb(as, "lw   $t8, 0($s3)");
  as.line("sb   $s0, 1($s3)");
  emit_absorb(as, "lb   $t8, 1($s3)");
  emit_absorb(as, "lbu  $t8, 3($s3)");
  as.line("sh   $s0, 2($s3)");
  emit_absorb(as, "lh   $t8, 2($s3)");
  emit_absorb(as, "lhu  $t8, 0($s3)");
  as.comment("branches: both directions of beq/bne");
  as.line("li   $t8, 0");
  as.line("beq  $s0, $s0, ctrl_b1");
  as.line("ori  $t8, $t8, 1");     // delay slot, executes
  as.line("ori  $t8, $t8, 2");     // skipped when taken
  as.label("ctrl_b1");
  as.line("beq  $s0, $s1, ctrl_b2");  // not taken
  as.line("ori  $t8, $t8, 4");
  as.line("ori  $t8, $t8, 8");        // falls through
  as.label("ctrl_b2");
  as.line("bne  $s0, $s1, ctrl_b3");  // taken
  as.line("ori  $t8, $t8, 16");
  as.line("ori  $t8, $t8, 32");       // skipped
  as.label("ctrl_b3");
  as.line("bne  $s0, $s0, ctrl_b4");  // not taken
  as.line("ori  $t8, $t8, 64");
  as.line("ori  $t8, $t8, 128");
  as.label("ctrl_b4");
  emit_absorb(as, "nop");
  as.comment("jumps: j, jal, jr");
  as.line("j    ctrl_j1");
  as.line("ori  $t8, $t8, 1");
  as.line("ori  $t8, $t8, 2");  // skipped
  as.label("ctrl_j1");
  as.line("jal  ctrl_sub");
  as.line("nop");
  emit_absorb(as, "addu $t8, $v0, $zero");
  as.line("b    ctrl_end");
  as.line("nop");
  as.label("ctrl_sub");
  as.line("li   $v0, 0x900d");
  as.line("jr   $ra");
  as.line("nop");
  as.label("ctrl_end");
  emit_absorb(as, "addu $t8, $t8, $zero");

  emit_unload(as, 6);
  Routine r{.name = "ctrl",
            .target = CutId::kControl,
            .strategy = TpgStrategy::kFunctionalTest,
            .style = "FT",
            .assembly = as.take(),
            .sig_slot = 6,
            .pattern_count = rtlgen::all_instruction_opcodes().size()};
  r.data_assembly = "ctrl_data:\n  .word 0\n";
  return r;
}

// ----------------------------------------------------- A-VC routine --------

Routine make_avc_address_routine(unsigned addr_bits) {
  Asm as;
  as.comment("A-VC address sweep: distributed references walking the MAR");
  emit_seed(as);
  std::size_t patterns = 0;
  // Word-aligned walking-bit addresses, well above the program image.
  for (unsigned k = 4; k <= addr_bits; ++k) {
    const std::uint32_t addr = std::uint32_t{1} << k;
    const std::uint32_t marker = 0xa0000000u | addr;
    as.line("li   $s3, %s", hex(addr).c_str());
    as.line("li   $s0, %s", hex(marker).c_str());
    as.line("sw   $s0, 0($s3)");
    emit_absorb(as, "lw   $t8, 0($s3)");
    ++patterns;
    // Pairwise bit: addr | 8 toggles a second MAR bit in the same window.
    as.line("li   $s3, %s", hex(addr | 8u).c_str());
    as.line("sw   $s0, 0($s3)");
    emit_absorb(as, "lw   $t8, 0($s3)");
    ++patterns;
  }
  emit_unload(as, 7);
  return {.name = "avc",
          .target = CutId::kMemCtrl,
          .strategy = TpgStrategy::kRegularDeterministic,
          .style = "RegD (I) A-VC",
          .assembly = as.take(),
          .sig_slot = 7,
          .pattern_count = patterns};
}

// ------------------------------------------------- code-style studies ------

Routine make_fig1_immediate_routine(const std::vector<AluOpnd>& tests,
                                    Compaction compaction) {
  Asm as;
  as.comment("Figure 1 code style: patterns via immediate instructions");
  emit_seed(as);
  for (const AluOpnd& t : tests) {
    as.line("li   $s0, %s", hex(t.a).c_str());
    as.line("li   $s1, %s", hex(t.b).c_str());
    if (compaction == Compaction::kMisr) {
      emit_absorb(as, std::string(alu_mnemonic(t.op)) + " $t8, $s0, $s1");
    } else {
      as.line("%s $t8, $s0, $s1", alu_mnemonic(t.op));
      as.line("xor  $s2, $s2, $t8");
    }
  }
  emit_unload(as, 7);
  return {.name = "fig1",
          .target = CutId::kAlu,
          .strategy = TpgStrategy::kAtpgDeterministic,
          .style = compaction == Compaction::kMisr ? "AtpgD (I)"
                                                   : "AtpgD (I) xor",
          .assembly = as.take(),
          .sig_slot = 7,
          .pattern_count = tests.size()};
}

Routine make_fig2_datafetch_routine(const std::vector<AluOpnd>& tests,
                                    AluOp op) {
  Asm as;
  as.comment("Figure 2 code style: patterns fetched from data memory");
  emit_seed(as);
  as.line("la   $s3, fig2_patterns");
  as.line("li   $s4, %zu", tests.size());
  as.line("add  $t0, $zero, $zero");
  as.label("fig2_loop");
  as.line("lw   $s0, 0($s3)");
  as.line("lw   $s1, 4($s3)");
  as.line("addiu $s3, $s3, 8");
  as.line("addiu $t0, $t0, 1");
  emit_absorb(as, std::string(alu_mnemonic(op)) + " $t8, $s0, $s1");
  as.line("bne  $s4, $t0, fig2_loop");
  as.line("nop");
  emit_unload(as, 7);

  std::string data = "fig2_patterns:\n";
  for (const AluOpnd& t : tests) {
    data += "  .word " + hex(t.a) + ", " + hex(t.b) + "\n";
  }
  return {.name = "fig2",
          .target = CutId::kAlu,
          .strategy = TpgStrategy::kAtpgDeterministic,
          .style = "AtpgD (L)",
          .assembly = as.take(),
          .data_assembly = std::move(data),
          .sig_slot = 7,
          .pattern_count = tests.size()};
}

Routine make_fig3_lfsr_routine(AluOp op, std::uint32_t seed_x,
                               std::uint32_t seed_y, unsigned iterations) {
  Asm as;
  as.comment("Figure 3 code style: software-LFSR pseudorandom loop");
  emit_seed(as);
  as.line("li   $s0, %s", hex(seed_x).c_str());
  as.line("li   $s1, %s", hex(seed_y).c_str());
  as.line("li   $s5, %u", iterations);
  as.line("add  $t0, $zero, $zero");
  as.label("fig3_loop");
  as.comment("LFSR step, operand X");
  as.line("andi $t9, $s0, 1");
  as.line("srl  $s0, $s0, 1");
  as.line("beq  $t9, $zero, fig3_x");
  as.line("nop");
  as.line("xor  $s0, $s0, $s7");
  as.label("fig3_x");
  as.comment("LFSR step, operand Y");
  as.line("andi $t9, $s1, 1");
  as.line("srl  $s1, $s1, 1");
  as.line("beq  $t9, $zero, fig3_y");
  as.line("nop");
  as.line("xor  $s1, $s1, $s7");
  as.label("fig3_y");
  as.line("addiu $t0, $t0, 1");
  emit_absorb(as, std::string(alu_mnemonic(op)) + " $t8, $s0, $s1");
  as.line("bne  $s5, $t0, fig3_loop");
  as.line("nop");
  emit_unload(as, 7);
  return {.name = "fig3",
          .target = CutId::kAlu,
          .strategy = TpgStrategy::kPseudorandom,
          .style = "PR (L)",
          .assembly = as.take(),
          .sig_slot = 7,
          .pattern_count = iterations};
}

Routine make_fig4_regular_routine(AluOp op) {
  Asm as;
  as.comment("Figure 4 code style: regular deterministic loop");
  emit_seed(as);
  as.comment("for every X = 1<<i, apply Y = 1<<j for all j");
  as.line("li   $s0, 1");
  as.label("fig4_x");
  as.line("li   $s1, 1");
  as.label("fig4_y");
  emit_absorb(as, std::string(alu_mnemonic(op)) + " $t8, $s0, $s1");
  as.line("sll  $s1, $s1, 1");
  as.line("bne  $s1, $zero, fig4_y");
  as.line("nop");
  as.line("sll  $s0, $s0, 1");
  as.line("bne  $s0, $zero, fig4_x");
  as.line("nop");
  emit_unload(as, 7);
  return {.name = "fig4",
          .target = CutId::kAlu,
          .strategy = TpgStrategy::kRegularDeterministic,
          .style = "RegD (L)",
          .assembly = as.take(),
          .sig_slot = 7,
          .pattern_count = 32u * 32u};
}

}  // namespace sbst::core

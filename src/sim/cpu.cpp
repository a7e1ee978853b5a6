#include "sim/cpu.hpp"

#include <cstring>

#include "common/bits.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/multiplier.hpp"
#include "sim/exec.hpp"

namespace sbst::sim {

using isa::Fields;
using rtlgen::AluOp;
using rtlgen::MemSize;
using rtlgen::ShiftOp;

WildStoreError::WildStoreError(std::uint32_t addr)
    : CpuError("wild store at " + to_hex32(addr)), addr_(addr) {}

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kHalted: return "halted";
    case StopReason::kInstructionBudget: return "instruction_budget";
    case StopReason::kCycleBudget: return "cycle_budget";
    case StopReason::kStoreBudget: return "store_budget";
    case StopReason::kWildStore: return "wild_store";
    case StopReason::kTrap: return "trap";
  }
  return "unknown";
}

std::uint64_t ExecStats::analytic_total_cycles(double miss_rate,
                                               unsigned miss_penalty) const {
  const double accesses = static_cast<double>(instructions + loads + stores);
  const double mem_stalls = accesses * miss_rate * miss_penalty;
  return cpu_cycles + pipeline_stall_cycles +
         static_cast<std::uint64_t>(mem_stalls);
}

Cpu::Cpu(const CpuConfig& config)
    : config_(config),
      memory_(config.mem_bytes, 0),
      icache_(config.icache),
      dcache_(config.dcache) {}

void Cpu::reset() {
  regs_.fill(0);
  hi_ = lo_ = 0;
  icache_.flush();
  dcache_.flush();
  icache_.reset_stats();
  dcache_.reset_stats();
  prev_dest_ = prev2_dest_ = 0;
  prev_was_load_ = false;
  muldiv_ready_ = 0;
  cycle_now_ = 0;
}

void Cpu::load(const isa::Program& program,
               std::shared_ptr<const isa::DecodedProgram> decoded) {
  if (program.end_address() > memory_.size()) {
    throw CpuError("program does not fit in memory");
  }
  // Drop the previous predecoded view first so the copy loop below does not
  // clone-and-patch it word by word.
  decoded_ = nullptr;
  decoded_shared_.reset();
  decoded_owned_.reset();
  for (std::size_t i = 0; i < program.words.size(); ++i) {
    write_word(program.base + static_cast<std::uint32_t>(i * 4),
               program.words[i]);
  }
  if (decoded) {
    if (decoded->base() != program.base ||
        decoded->size() != program.words.size()) {
      throw CpuError("decoded program does not match image");
    }
    decoded_shared_ = std::move(decoded);
    decoded_ = decoded_shared_.get();
  } else {
    decoded_owned_ = std::make_unique<isa::DecodedProgram>(program);
    decoded_ = decoded_owned_.get();
  }
}

std::uint32_t Cpu::read_word(std::uint32_t addr) const {
  if (std::size_t{addr} + 4 > memory_.size() || (addr & 3u)) {
    throw CpuError("bad word read at " + to_hex32(addr));
  }
  std::uint32_t v;
  std::memcpy(&v, memory_.data() + addr, 4);
  return v;
}

void Cpu::write_word(std::uint32_t addr, std::uint32_t value) {
  if (std::size_t{addr} + 4 > memory_.size() || (addr & 3u)) {
    throw CpuError("bad word write at " + to_hex32(addr));
  }
  std::memcpy(memory_.data() + addr, &value, 4);
  if (decoded_ && decoded_->contains(addr)) {
    if (!decoded_owned_) {  // never mutate a shared predecoded image
      decoded_owned_ = std::make_unique<isa::DecodedProgram>(*decoded_);
      decoded_shared_.reset();
      decoded_ = decoded_owned_.get();
    }
    decoded_owned_->patch(addr, value);
  }
}

std::uint32_t Cpu::fetch(std::uint32_t pc, ExecStats& stats) {
  ++stats.icache_accesses;
  if (!icache_.access(pc)) {
    ++stats.icache_misses;
    stats.memory_stall_cycles += icache_.config().miss_penalty;
  }
  return read_word(pc);
}

std::uint32_t Cpu::alu(AluOp op, std::uint32_t a, std::uint32_t b) {
  std::uint32_t r = rtlgen::alu_ref(op, a, b);
  if (hooks_) {
    hooks_->on_alu(op, a, b);
    if (const auto forced = hooks_->alu_result(op, a, b)) r = *forced;
  }
  return r;
}

std::uint32_t Cpu::shift(ShiftOp op, std::uint32_t value,
                         std::uint32_t shamt) {
  shamt &= 31u;
  std::uint32_t r = rtlgen::shifter_ref(op, value, shamt);
  if (hooks_) {
    hooks_->on_shift(op, value, shamt);
    if (const auto forced = hooks_->shift_result(op, value, shamt)) {
      r = *forced;
    }
  }
  return r;
}

std::uint32_t Cpu::mem_load(std::uint32_t addr, MemSize size, bool sign,
                            ExecStats& stats) {
  const unsigned bytes = size == MemSize::kByte ? 1
                         : size == MemSize::kHalf ? 2
                                                  : 4;
  if (addr % bytes != 0) {
    throw CpuError("misaligned load at " + to_hex32(addr));
  }
  ++stats.loads;
  ++stats.dcache_accesses;
  stats.cpu_cycles += config_.mem_access_cycles;
  cycle_now_ += config_.mem_access_cycles;
  if (!dcache_.access(addr)) {
    ++stats.dcache_misses;
    stats.memory_stall_cycles += dcache_.config().miss_penalty;
  }
  const std::uint32_t word = read_word(addr & ~3u);
  if (hooks_) hooks_->on_mem(addr, 0, size, sign, false, word);
  return rtlgen::memctrl_load_ref(addr, word, size, sign);
}

void Cpu::mem_store(std::uint32_t addr, std::uint32_t value, MemSize size,
                    ExecStats& stats) {
  const unsigned bytes = size == MemSize::kByte ? 1
                         : size == MemSize::kHalf ? 2
                                                  : 4;
  if (addr % bytes != 0) {
    throw CpuError("misaligned store at " + to_hex32(addr));
  }
  ++stats.stores;
  ++stats.dcache_accesses;
  stats.cpu_cycles += config_.mem_access_cycles;
  cycle_now_ += config_.mem_access_cycles;
  if (!dcache_.access(addr)) {
    ++stats.dcache_misses;
    stats.memory_stall_cycles += dcache_.config().miss_penalty;
  }
  const std::uint32_t old = read_word(addr & ~3u);
  if (hooks_) hooks_->on_mem(addr, value, size, false, true, old);
  const auto ref = rtlgen::memctrl_store_ref(addr, value, size, true);
  std::uint32_t merged = old;
  for (unsigned lane = 0; lane < 4; ++lane) {
    if ((ref.byte_en >> lane) & 1u) {
      merged = (merged & ~(0xffu << (lane * 8))) |
               (ref.mem_wdata & (0xffu << (lane * 8)));
    }
  }
  write_word(addr & ~3u, merged);
}

namespace {

// Which architectural registers an instruction reads (for hazard checks).
struct RegReads {
  bool rs = false;
  bool rt = false;
};

RegReads reads_of(const Fields& f) {
  RegReads r;
  if (f.opcode == 0x00) {
    switch (f.funct) {
      case 0x00: case 0x02: case 0x03:  // immediate shifts read rt only
        r.rt = true;
        break;
      case 0x08: case 0x11: case 0x13:  // jr, mthi, mtlo
        r.rs = true;
        break;
      case 0x10: case 0x12: case 0x0d:  // mfhi, mflo, break
        break;
      default:
        r.rs = r.rt = true;
    }
    return r;
  }
  switch (f.opcode) {
    case 0x02: case 0x03: case 0x0f:  // j, jal, lui
      break;
    case 0x04: case 0x05:  // branches
      r.rs = r.rt = true;
      break;
    case 0x28: case 0x29: case 0x2b:  // stores read base + data
      r.rs = r.rt = true;
      break;
    default:  // immediate ALU ops and loads read rs
      r.rs = true;
  }
  return r;
}

std::uint32_t magnitude(std::uint32_t v) {
  return static_cast<std::int32_t>(v) < 0 ? 0u - v : v;
}

}  // namespace

void Cpu::charge_hazards(const Fields& f, ExecStats& stats) {
  const RegReads r = reads_of(f);
  auto uses = [&](std::uint8_t reg) {
    return reg != 0 && ((r.rs && f.rs == reg) || (r.rt && f.rt == reg));
  };
  unsigned stall = 0;
  if (config_.forwarding) {
    // Only a load feeding the very next instruction bubbles.
    if (prev_was_load_ && uses(prev_dest_)) stall = 1;
  } else {
    if (prev_dest_ != 0 && uses(prev_dest_)) {
      stall = 2;
    } else if (prev2_dest_ != 0 && uses(prev2_dest_)) {
      stall = 1;
    }
  }
  stats.pipeline_stall_cycles += stall;
  cycle_now_ += stall;
}

void Cpu::wait_muldiv(ExecStats& stats) {
  if (cycle_now_ < muldiv_ready_) {
    const std::uint64_t wait = muldiv_ready_ - cycle_now_;
    // Multi-cycle arithmetic latency counts as CPU clock cycles, matching
    // the paper's accounting for the mul/div routine.
    stats.cpu_cycles += wait;
    cycle_now_ += wait;
  }
}

ExecStats Cpu::run(std::uint32_t entry, std::uint64_t max_instructions) {
  if (hooks_) {
    HookSink sink{hooks_};
    return run_sink(entry, sink, max_instructions);
  }
  NoSink sink;
  return run_sink(entry, sink, max_instructions);
}

ExecStats Cpu::run_interpreter(std::uint32_t entry,
                               std::uint64_t max_instructions) {
  ExecStats stats;
  std::uint32_t pc = entry;
  std::uint32_t next_pc = entry + 4;

  while (stats.instructions < max_instructions) {
    const std::uint32_t word = fetch(pc, stats);
    const Fields f = isa::decode(word);
    ++stats.instructions;
    ++stats.cpu_cycles;
    ++cycle_now_;
    charge_hazards(f, stats);
    if (hooks_) {
      hooks_->on_instruction_start(pc);
      hooks_->on_control(f.opcode, f.funct);
    }

    std::uint32_t new_next = next_pc + 4;
    const std::uint32_t rs_v = regs_[f.rs];
    const std::uint32_t rt_v = regs_[f.rt];
    const std::uint32_t simm =
        sign_extend32(f.imm, 16);

    std::uint8_t dest = 0;
    std::uint32_t dest_value = 0;
    bool write = false;
    bool is_load = false;
    bool halted = false;

    auto set_dest = [&](std::uint8_t reg, std::uint32_t value) {
      dest = reg;
      dest_value = value;
      write = reg != 0;
    };

    if (f.opcode == 0x00) {
      switch (f.funct) {
        case 0x00: set_dest(f.rd, shift(ShiftOp::kSll, rt_v, f.shamt)); break;
        case 0x02: set_dest(f.rd, shift(ShiftOp::kSrl, rt_v, f.shamt)); break;
        case 0x03: set_dest(f.rd, shift(ShiftOp::kSra, rt_v, f.shamt)); break;
        case 0x04: set_dest(f.rd, shift(ShiftOp::kSll, rt_v, rs_v)); break;
        case 0x06: set_dest(f.rd, shift(ShiftOp::kSrl, rt_v, rs_v)); break;
        case 0x07: set_dest(f.rd, shift(ShiftOp::kSra, rt_v, rs_v)); break;
        case 0x08: new_next = rs_v; break;  // jr
        case 0x0d: halted = true; break;    // break
        case 0x10: wait_muldiv(stats); set_dest(f.rd, hi_); break;
        case 0x11: wait_muldiv(stats); hi_ = rs_v; break;
        case 0x12: wait_muldiv(stats); set_dest(f.rd, lo_); break;
        case 0x13: wait_muldiv(stats); lo_ = rs_v; break;
        case 0x18:    // mult
        case 0x19: {  // multu
          wait_muldiv(stats);
          const bool is_signed = f.funct == 0x18;
          const std::uint32_t au = is_signed ? magnitude(rs_v) : rs_v;
          const std::uint32_t bu = is_signed ? magnitude(rt_v) : rt_v;
          std::uint64_t product = rtlgen::multiplier_ref(au, bu);
          if (hooks_) {
            hooks_->on_mult(au, bu);
            if (const auto forced = hooks_->mult_result(au, bu)) {
              product = *forced;
            }
          }
          if (is_signed && (static_cast<std::int32_t>(rs_v) < 0) !=
                               (static_cast<std::int32_t>(rt_v) < 0)) {
            product = 0u - product;
          }
          lo_ = static_cast<std::uint32_t>(product);
          hi_ = static_cast<std::uint32_t>(product >> 32);
          muldiv_ready_ = cycle_now_ + config_.mult_cycles;
          break;
        }
        case 0x1a:    // div
        case 0x1b: {  // divu
          wait_muldiv(stats);
          const bool is_signed = f.funct == 0x1a;
          const std::uint32_t au = is_signed ? magnitude(rs_v) : rs_v;
          const std::uint32_t bu = is_signed ? magnitude(rt_v) : rt_v;
          if (hooks_) hooks_->on_div(au, bu);
          const rtlgen::DivRef d = rtlgen::divider_ref(au, bu);
          std::uint32_t q = d.quotient;
          std::uint32_t r = d.remainder;
          if (is_signed && bu != 0) {
            if ((static_cast<std::int32_t>(rs_v) < 0) !=
                (static_cast<std::int32_t>(rt_v) < 0)) {
              q = 0u - q;
            }
            if (static_cast<std::int32_t>(rs_v) < 0) r = 0u - r;
          }
          lo_ = q;
          hi_ = r;
          muldiv_ready_ = cycle_now_ + config_.div_cycles;
          break;
        }
        case 0x20: case 0x21:
          set_dest(f.rd, alu(AluOp::kAdd, rs_v, rt_v));
          break;
        case 0x22: case 0x23:
          set_dest(f.rd, alu(AluOp::kSub, rs_v, rt_v));
          break;
        case 0x24: set_dest(f.rd, alu(AluOp::kAnd, rs_v, rt_v)); break;
        case 0x25: set_dest(f.rd, alu(AluOp::kOr, rs_v, rt_v)); break;
        case 0x26: set_dest(f.rd, alu(AluOp::kXor, rs_v, rt_v)); break;
        case 0x27: set_dest(f.rd, alu(AluOp::kNor, rs_v, rt_v)); break;
        case 0x2a: set_dest(f.rd, alu(AluOp::kSlt, rs_v, rt_v)); break;
        case 0x2b: set_dest(f.rd, alu(AluOp::kSltu, rs_v, rt_v)); break;
        default:
          throw CpuError("illegal funct " + to_hex32(f.funct) + " at pc " +
                         to_hex32(pc));
      }
    } else {
      switch (f.opcode) {
        case 0x02:  // j
          new_next = (pc & 0xf0000000u) | (f.target << 2);
          break;
        case 0x03:  // jal
          set_dest(isa::kRa, pc + 8);
          new_next = (pc & 0xf0000000u) | (f.target << 2);
          break;
        case 0x04:  // beq
          if (hooks_) {
            hooks_->on_branch_target(pc + 4, sign_extend32(f.imm, 16) << 2);
          }
          if (alu(AluOp::kSub, rs_v, rt_v) == 0) {
            new_next = pc + 4 + (sign_extend32(f.imm, 16) << 2);
          }
          break;
        case 0x05:  // bne
          if (hooks_) {
            hooks_->on_branch_target(pc + 4, sign_extend32(f.imm, 16) << 2);
          }
          if (alu(AluOp::kSub, rs_v, rt_v) != 0) {
            new_next = pc + 4 + (sign_extend32(f.imm, 16) << 2);
          }
          break;
        case 0x08: case 0x09:
          set_dest(f.rt, alu(AluOp::kAdd, rs_v, simm));
          break;
        case 0x0a: set_dest(f.rt, alu(AluOp::kSlt, rs_v, simm)); break;
        case 0x0b: set_dest(f.rt, alu(AluOp::kSltu, rs_v, simm)); break;
        case 0x0c: set_dest(f.rt, alu(AluOp::kAnd, rs_v, f.imm)); break;
        case 0x0d: set_dest(f.rt, alu(AluOp::kOr, rs_v, f.imm)); break;
        case 0x0e: set_dest(f.rt, alu(AluOp::kXor, rs_v, f.imm)); break;
        case 0x0f:  // lui
          set_dest(f.rt, static_cast<std::uint32_t>(f.imm) << 16);
          break;
        case 0x20:
          is_load = true;
          set_dest(f.rt, mem_load(alu(AluOp::kAdd, rs_v, simm),
                                  MemSize::kByte, true, stats));
          break;
        case 0x21:
          is_load = true;
          set_dest(f.rt, mem_load(alu(AluOp::kAdd, rs_v, simm),
                                  MemSize::kHalf, true, stats));
          break;
        case 0x23:
          is_load = true;
          set_dest(f.rt, mem_load(alu(AluOp::kAdd, rs_v, simm),
                                  MemSize::kWord, false, stats));
          break;
        case 0x24:
          is_load = true;
          set_dest(f.rt, mem_load(alu(AluOp::kAdd, rs_v, simm),
                                  MemSize::kByte, false, stats));
          break;
        case 0x25:
          is_load = true;
          set_dest(f.rt, mem_load(alu(AluOp::kAdd, rs_v, simm),
                                  MemSize::kHalf, false, stats));
          break;
        case 0x28:
          mem_store(alu(AluOp::kAdd, rs_v, simm), rt_v, MemSize::kByte,
                    stats);
          break;
        case 0x29:
          mem_store(alu(AluOp::kAdd, rs_v, simm), rt_v, MemSize::kHalf,
                    stats);
          break;
        case 0x2b:
          mem_store(alu(AluOp::kAdd, rs_v, simm), rt_v, MemSize::kWord,
                    stats);
          break;
        default:
          throw CpuError("illegal opcode " + to_hex32(f.opcode) + " at pc " +
                         to_hex32(pc));
      }
    }

    // Register-file and hidden-component traces.
    if (hooks_) {
      const RegReads r = reads_of(f);
      hooks_->on_regfile(write ? dest : 0, dest_value, write,
                         r.rs ? f.rs : 0, r.rt ? f.rt : 0);
      hooks_->on_forward(r.rs ? f.rs : 0, r.rt ? f.rt : 0, prev_dest_,
                         prev_dest_ != 0, prev2_dest_, prev2_dest_ != 0);
    }
    if (write) regs_[dest] = dest_value;

    prev2_dest_ = prev_dest_;
    prev_dest_ = write ? dest : 0;
    prev_was_load_ = is_load;

    if (halted) {
      stats.halted = true;
      break;
    }
    if (new_next != next_pc + 4) {
      if (hooks_) hooks_->on_branch_flush();
      stats.pipeline_stall_cycles += config_.branch_taken_penalty;
      cycle_now_ += config_.branch_taken_penalty;
    }
    pc = next_pc;
    next_pc = new_next;
  }
  return stats;
}

}  // namespace sbst::sim

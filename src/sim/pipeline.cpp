#include "sim/pipeline.hpp"

#include <cstring>

#include "common/bits.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/memctrl.hpp"
#include "rtlgen/multiplier.hpp"
#include "rtlgen/shifter.hpp"

namespace sbst::sim {

using isa::Fields;
using rtlgen::AluOp;
using rtlgen::MemSize;
using rtlgen::ShiftOp;

namespace {

bool uses_rs(const Fields& f) {
  if (f.opcode == 0x00) {
    switch (f.funct) {
      case 0x00: case 0x02: case 0x03: case 0x10: case 0x12: case 0x0d:
        return false;
      default:
        return true;
    }
  }
  switch (f.opcode) {
    case 0x02: case 0x03: case 0x0f:
      return false;
    default:
      return true;
  }
}

bool uses_rt(const Fields& f) {
  if (f.opcode == 0x00) {
    switch (f.funct) {
      case 0x08: case 0x0d: case 0x10: case 0x11: case 0x12: case 0x13:
        return false;
      default:
        return true;
    }
  }
  switch (f.opcode) {
    case 0x04: case 0x05: case 0x28: case 0x29: case 0x2b:
      return true;
    default:
      return false;
  }
}

std::uint32_t magnitude(std::uint32_t v) {
  return static_cast<std::int32_t>(v) < 0 ? 0u - v : v;
}

}  // namespace

PipelinedCpu::PipelinedCpu(const CpuConfig& config)
    : config_(config),
      memory_(config.mem_bytes, 0),
      icache_(config.icache),
      dcache_(config.dcache) {}

void PipelinedCpu::reset() {
  regs_.fill(0);
  hi_ = lo_ = 0;
  icache_.flush();
  dcache_.flush();
  f_ = {};
  x_ = {};
  wb_dest_ = 0;
  wb_value_ = 0;
  wb_from_load_ = false;
  muldiv_busy_ = 0;
  pc_ = 0;
  halted_ = false;
}

void PipelinedCpu::load(const isa::Program& program) {
  if (program.end_address() > memory_.size()) {
    throw CpuError("pipeline: program does not fit in memory");
  }
  for (std::size_t i = 0; i < program.words.size(); ++i) {
    write_word(program.base + static_cast<std::uint32_t>(i * 4),
               program.words[i]);
  }
}

std::uint32_t PipelinedCpu::read_word(std::uint32_t addr) const {
  if (std::size_t{addr} + 4 > memory_.size() || (addr & 3u)) {
    throw CpuError("pipeline: bad word read at " + to_hex32(addr));
  }
  std::uint32_t v;
  std::memcpy(&v, memory_.data() + addr, 4);
  return v;
}

void PipelinedCpu::write_word(std::uint32_t addr, std::uint32_t value) {
  if (std::size_t{addr} + 4 > memory_.size() || (addr & 3u)) {
    throw CpuError("pipeline: bad word write at " + to_hex32(addr));
  }
  std::memcpy(memory_.data() + addr, &value, 4);
}

void PipelinedCpu::stage_mem(ExecStats& stats) {
  if (!x_.valid) return;
  if (x_.is_load || x_.is_store) {
    const unsigned bytes = x_.size == MemSize::kByte    ? 1
                           : x_.size == MemSize::kHalf ? 2
                                                       : 4;
    if (x_.result % bytes != 0) {
      throw CpuError("pipeline: misaligned access at " + to_hex32(x_.result));
    }
    stats.cpu_cycles += config_.mem_access_cycles;
    ++stats.dcache_accesses;
    if (!dcache_.access(x_.result)) {
      ++stats.dcache_misses;
      stats.memory_stall_cycles += dcache_.config().miss_penalty;
    }
  }
  if (x_.is_load) {
    ++stats.loads;
    const std::uint32_t word = read_word(x_.result & ~3u);
    const std::uint32_t value =
        rtlgen::memctrl_load_ref(x_.result, word, x_.size, x_.load_signed);
    if (x_.dest != 0) regs_[x_.dest] = value;
  } else if (x_.is_store) {
    ++stats.stores;
    const std::uint32_t old = read_word(x_.result & ~3u);
    const auto ref =
        rtlgen::memctrl_store_ref(x_.result, x_.store_value, x_.size, true);
    std::uint32_t merged = old;
    for (unsigned lane = 0; lane < 4; ++lane) {
      if ((ref.byte_en >> lane) & 1u) {
        merged = (merged & ~(0xffu << (lane * 8))) |
                 (ref.mem_wdata & (0xffu << (lane * 8)));
      }
    }
    write_word(x_.result & ~3u, merged);
  } else if (x_.dest != 0) {
    regs_[x_.dest] = x_.result;
  }
  x_.valid = false;
}

PipelinedCpu::XResult PipelinedCpu::stage_execute(ExecStats& stats) {
  XResult out;
  if (!f_.valid) return out;

  const Fields f = isa::decode(f_.instr);
  const std::uint32_t pc = f_.pc;
  const std::uint32_t rs_v = regs_[f.rs];
  const std::uint32_t rt_v = regs_[f.rt];
  const std::uint32_t simm = sign_extend32(f.imm, 16);

  ExecLatch next;
  next.valid = true;
  next.pc = pc;
  next.fields = f;

  auto set_dest = [&](std::uint8_t reg, std::uint32_t value) {
    next.dest = reg;
    next.result = value;
  };
  auto memop = [&](bool is_load, MemSize size, bool sign) {
    next.result = rs_v + simm;  // effective address
    next.is_load = is_load;
    next.is_store = !is_load;
    next.size = size;
    next.load_signed = sign;
    if (is_load) {
      next.dest = f.rt;
    } else {
      next.store_value = rt_v;
    }
  };
  auto need_md_unit = [&]() {
    if (muldiv_busy_ > 0) {
      out.stall = true;
      return true;
    }
    return false;
  };

  if (f.opcode == 0x00) {
    switch (f.funct) {
      case 0x00: set_dest(f.rd, rtlgen::shifter_ref(ShiftOp::kSll, rt_v, f.shamt)); break;
      case 0x02: set_dest(f.rd, rtlgen::shifter_ref(ShiftOp::kSrl, rt_v, f.shamt)); break;
      case 0x03: set_dest(f.rd, rtlgen::shifter_ref(ShiftOp::kSra, rt_v, f.shamt)); break;
      case 0x04: set_dest(f.rd, rtlgen::shifter_ref(ShiftOp::kSll, rt_v, rs_v & 31)); break;
      case 0x06: set_dest(f.rd, rtlgen::shifter_ref(ShiftOp::kSrl, rt_v, rs_v & 31)); break;
      case 0x07: set_dest(f.rd, rtlgen::shifter_ref(ShiftOp::kSra, rt_v, rs_v & 31)); break;
      case 0x08:  // jr
        out.redirect = true;
        out.target = rs_v;
        break;
      case 0x0d:  // break
        next.is_break = true;
        break;
      case 0x10: if (need_md_unit()) return out; set_dest(f.rd, hi_); break;
      case 0x11: if (need_md_unit()) return out; hi_ = rs_v; break;
      case 0x12: if (need_md_unit()) return out; set_dest(f.rd, lo_); break;
      case 0x13: if (need_md_unit()) return out; lo_ = rs_v; break;
      case 0x18:
      case 0x19: {
        if (need_md_unit()) return out;
        const bool is_signed = f.funct == 0x18;
        const std::uint32_t au = is_signed ? magnitude(rs_v) : rs_v;
        const std::uint32_t bu = is_signed ? magnitude(rt_v) : rt_v;
        std::uint64_t product = rtlgen::multiplier_ref(au, bu);
        if (is_signed && (static_cast<std::int32_t>(rs_v) < 0) !=
                             (static_cast<std::int32_t>(rt_v) < 0)) {
          product = 0u - product;
        }
        lo_ = static_cast<std::uint32_t>(product);
        hi_ = static_cast<std::uint32_t>(product >> 32);
        muldiv_busy_ = config_.mult_cycles;
        break;
      }
      case 0x1a:
      case 0x1b: {
        if (need_md_unit()) return out;
        const bool is_signed = f.funct == 0x1a;
        const std::uint32_t au = is_signed ? magnitude(rs_v) : rs_v;
        const std::uint32_t bu = is_signed ? magnitude(rt_v) : rt_v;
        const rtlgen::DivRef d = rtlgen::divider_ref(au, bu);
        std::uint32_t q = d.quotient, r = d.remainder;
        if (is_signed && bu != 0) {
          if ((static_cast<std::int32_t>(rs_v) < 0) !=
              (static_cast<std::int32_t>(rt_v) < 0)) {
            q = 0u - q;
          }
          if (static_cast<std::int32_t>(rs_v) < 0) r = 0u - r;
        }
        lo_ = q;
        hi_ = r;
        muldiv_busy_ = config_.div_cycles;
        break;
      }
      case 0x20: case 0x21: set_dest(f.rd, rs_v + rt_v); break;
      case 0x22: case 0x23: set_dest(f.rd, rs_v - rt_v); break;
      case 0x24: set_dest(f.rd, rs_v & rt_v); break;
      case 0x25: set_dest(f.rd, rs_v | rt_v); break;
      case 0x26: set_dest(f.rd, rs_v ^ rt_v); break;
      case 0x27: set_dest(f.rd, ~(rs_v | rt_v)); break;
      case 0x2a:
        set_dest(f.rd, static_cast<std::int32_t>(rs_v) <
                               static_cast<std::int32_t>(rt_v)
                           ? 1
                           : 0);
        break;
      case 0x2b: set_dest(f.rd, rs_v < rt_v ? 1 : 0); break;
      default:
        throw CpuError("pipeline: illegal funct at " + to_hex32(pc));
    }
  } else {
    switch (f.opcode) {
      case 0x02:
        out.redirect = true;
        out.target = (pc & 0xf0000000u) | (f.target << 2);
        break;
      case 0x03:
        set_dest(isa::kRa, pc + 8);
        out.redirect = true;
        out.target = (pc & 0xf0000000u) | (f.target << 2);
        break;
      case 0x04:
        if (rs_v == rt_v) {
          out.redirect = true;
          out.target = pc + 4 + (simm << 2);
        }
        break;
      case 0x05:
        if (rs_v != rt_v) {
          out.redirect = true;
          out.target = pc + 4 + (simm << 2);
        }
        break;
      case 0x08: case 0x09: set_dest(f.rt, rs_v + simm); break;
      case 0x0a:
        set_dest(f.rt, static_cast<std::int32_t>(rs_v) <
                               static_cast<std::int32_t>(simm)
                           ? 1
                           : 0);
        break;
      case 0x0b: set_dest(f.rt, rs_v < simm ? 1 : 0); break;
      case 0x0c: set_dest(f.rt, rs_v & f.imm); break;
      case 0x0d: set_dest(f.rt, rs_v | f.imm); break;
      case 0x0e: set_dest(f.rt, rs_v ^ f.imm); break;
      case 0x0f: set_dest(f.rt, static_cast<std::uint32_t>(f.imm) << 16); break;
      case 0x20: memop(true, MemSize::kByte, true); break;
      case 0x21: memop(true, MemSize::kHalf, true); break;
      case 0x23: memop(true, MemSize::kWord, false); break;
      case 0x24: memop(true, MemSize::kByte, false); break;
      case 0x25: memop(true, MemSize::kHalf, false); break;
      case 0x28: memop(false, MemSize::kByte, false); break;
      case 0x29: memop(false, MemSize::kHalf, false); break;
      case 0x2b: memop(false, MemSize::kWord, false); break;
      default:
        throw CpuError("pipeline: illegal opcode at " + to_hex32(pc));
    }
  }

  ++stats.instructions;
  f_.valid = false;
  x_ = next;
  return out;
}

ExecStats PipelinedCpu::run(std::uint32_t entry, std::uint64_t max_cycles) {
  ExecStats stats;
  pc_ = entry;
  f_ = {};
  x_ = {};
  halted_ = false;

  for (std::uint64_t cycle = 0; cycle < max_cycles && !halted_; ++cycle) {
    // Load-use interlock: the instruction in X needs a register the load in
    // M only produces at the end of this cycle.
    bool load_use = false;
    if (f_.valid && x_.valid && x_.is_load && x_.dest != 0) {
      const Fields f = isa::decode(f_.instr);
      load_use = (uses_rs(f) && f.rs == x_.dest) ||
                 (uses_rt(f) && f.rt == x_.dest);
    }

    // M retires the older instruction either way.
    const bool was_break = x_.valid && x_.is_break;
    stage_mem(stats);
    if (was_break) {
      stats.halted = true;
      halted_ = true;
      ++stats.cpu_cycles;
      break;
    }

    XResult xr;
    if (load_use) {
      stats.pipeline_stall_cycles += 1;
    } else {
      xr = stage_execute(stats);
      if (xr.stall) {
        // Multiply/divide unit interlock: counted as CPU cycles, matching
        // the functional model's accounting.
      }
      ++stats.cpu_cycles;
    }
    if (load_use) {
      // The bubble cycle still advances the md unit below, but fetch holds.
    } else if (!xr.stall) {
      // F fetches the next instruction (the delay slot keeps flowing: the
      // redirect from X only affects *next* cycle's fetch address).
      if (!f_.valid) {
        ++stats.icache_accesses;
        if (!icache_.access(pc_)) {
          ++stats.icache_misses;
          stats.memory_stall_cycles += icache_.config().miss_penalty;
        }
        f_ = {true, pc_, read_word(pc_)};
        pc_ = xr.redirect ? xr.target : pc_ + 4;
      }
    }
    if (muldiv_busy_ > 0) --muldiv_busy_;
  }
  return stats;
}

}  // namespace sbst::sim

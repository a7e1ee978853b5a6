#include "core/march.hpp"

#include <cstdio>

namespace sbst::core {

std::size_t MarchAlgorithm::ops_per_cell() const {
  std::size_t n = 0;
  for (const MarchElement& e : elements) n += e.ops.size();
  return n;
}

const MarchAlgorithm& mats_plus() {
  static const MarchAlgorithm kAlg{
      "MATS+",
      {{MarchOrder::kEither, {MarchOp::kW0}},
       {MarchOrder::kUp, {MarchOp::kR0, MarchOp::kW1}},
       {MarchOrder::kDown, {MarchOp::kR1, MarchOp::kW0}}}};
  return kAlg;
}

const MarchAlgorithm& march_x() {
  static const MarchAlgorithm kAlg{
      "March X",
      {{MarchOrder::kEither, {MarchOp::kW0}},
       {MarchOrder::kUp, {MarchOp::kR0, MarchOp::kW1}},
       {MarchOrder::kDown, {MarchOp::kR1, MarchOp::kW0}},
       {MarchOrder::kEither, {MarchOp::kR0}}}};
  return kAlg;
}

const MarchAlgorithm& march_c_minus() {
  static const MarchAlgorithm kAlg{
      "March C-",
      {{MarchOrder::kEither, {MarchOp::kW0}},
       {MarchOrder::kUp, {MarchOp::kR0, MarchOp::kW1}},
       {MarchOrder::kUp, {MarchOp::kR1, MarchOp::kW0}},
       {MarchOrder::kDown, {MarchOp::kR0, MarchOp::kW1}},
       {MarchOrder::kDown, {MarchOp::kR1, MarchOp::kW0}},
       {MarchOrder::kEither, {MarchOp::kR0}}}};
  return kAlg;
}

namespace {

template <typename CellFn>
void walk(const MarchAlgorithm& algorithm, unsigned first, unsigned last,
          CellFn&& per_cell) {
  for (const MarchElement& e : algorithm.elements) {
    if (e.order == MarchOrder::kDown) {
      for (unsigned r = last + 1; r-- > first;) per_cell(r, e.ops);
    } else {
      for (unsigned r = first; r <= last; ++r) per_cell(r, e.ops);
    }
  }
}

}  // namespace

fault::SeqStimulus march_regfile_stimulus(
    const netlist::Netlist& regfile, const MarchAlgorithm& algorithm,
    unsigned first, unsigned last,
    const std::vector<std::uint32_t>& backgrounds) {
  fault::SeqStimulus seq(regfile);
  for (std::uint32_t bg : backgrounds) {
    const std::uint32_t v0 = bg;
    const std::uint32_t v1 = ~bg;
    walk(algorithm, first, last,
         [&](unsigned r, const std::vector<MarchOp>& ops) {
           for (MarchOp op : ops) {
             switch (op) {
               case MarchOp::kW0:
                 seq.add_cycle({{"waddr", r}, {"wdata", v0}, {"wen", 1}},
                               false);
                 break;
               case MarchOp::kW1:
                 seq.add_cycle({{"waddr", r}, {"wdata", v1}, {"wen", 1}},
                               false);
                 break;
               case MarchOp::kR0:
               case MarchOp::kR1:
                 seq.add_cycle({{"wen", 0},
                                {"raddr1", r},
                                {"raddr2", (r == first) ? last : r - 1}},
                               true);
                 break;
             }
           }
         });
  }
  return seq;
}

Routine make_march_regfile_routine(const MarchAlgorithm& algorithm,
                                   std::uint32_t background) {
  std::string as;
  auto line = [&](const std::string& s) { as += "  " + s + "\n"; };
  auto hex = [](std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%x", v);
    return std::string(buf);
  };
  line("# register-file " + algorithm.name + " (" +
       std::to_string(algorithm.ops_per_cell()) + "n), two-phase");
  line("li   $s7, " + hex(kMisrPoly));
  line("li   $s2, " + hex(kMisrSeed));

  const std::uint32_t v0 = background;
  const std::uint32_t v1 = ~background;

  // Phase 1: sweep $1..$15, MISR in high registers through `misr`.
  // March reads pair the swept register with its march-order predecessor on
  // the second read port, so both read-mux trees are exercised with
  // distinguishable data (reading via one port only leaves half the read
  // logic dark — measured in bench/march_regfile).
  auto emit_half = [&](unsigned first, unsigned last, bool high_harness) {
    walk(algorithm, first, last,
         [&](unsigned r, const std::vector<MarchOp>& ops) {
           const std::string reg = "$" + std::to_string(r);
           const unsigned prev = (r == first) ? last : r - 1;
           const std::string other = "$" + std::to_string(prev);
           for (MarchOp op : ops) {
             switch (op) {
               case MarchOp::kW0:
                 line("li   " + reg + ", " + hex(v0));
                 break;
               case MarchOp::kW1:
                 line("li   " + reg + ", " + hex(v1));
                 break;
               case MarchOp::kR0:
               case MarchOp::kR1:
                 if (high_harness) {
                   line("jal  misr");
                   line("addu $t8, " + reg + ", " + other);
                 } else {
                   line("jal  misr_lo");
                   line("addu $8, " + reg + ", " + other);
                 }
                 break;
             }
           }
         });
  };
  emit_half(1, 15, /*high_harness=*/true);
  line("addu $2, $s2, $zero");
  line("addu $7, $s7, $zero");
  // $31 is the jal link register: sweep 16..30 here; $31 keeps its
  // checkerboard coverage from the RegD routine.
  emit_half(16, 30, /*high_harness=*/false);
  line("la   $5, signatures");
  line("sw   $2, 28($5)");

  return {.name = "march",
          .target = CutId::kRegisterFile,
          .strategy = TpgStrategy::kRegularDeterministic,
          .style = algorithm.name + " (I)",
          .assembly = std::move(as),
          .sig_slot = 7,
          .pattern_count = algorithm.ops_per_cell() * 30};
}

}  // namespace sbst::core

// Experiments F1-F4 — reproduces the paper's Figures 1-4: the four
// self-test routine code styles, their generated assembly, and the §3.3
// characteristics analysis (code size / data size / execution time /
// instruction- and data-reference behaviour per style).
#include <cstdio>

#include "atpg/testgen.hpp"
#include "common/tablefmt.hpp"
#include "core/codegen.hpp"
#include "core/evaluate.hpp"
#include "core/program.hpp"
#include "isa/disasm.hpp"

using namespace sbst;
using namespace sbst::core;

namespace {

struct StyleRun {
  std::string label;
  Routine routine;
  TestProgram program;
  sim::ExecStats stats;
  double alu_fc = 0;
};

StyleRun run_style(const ProcessorModel& model, std::string label,
                   Routine routine) {
  TestProgramBuilder builder;
  StyleRun out{std::move(label), routine, builder.build_standalone(routine),
               {}, 0};
  TraceCollector trace(model);
  sim::Cpu cpu;
  cpu.reset();
  cpu.load(out.program.image);
  cpu.set_hooks(&trace);
  out.stats = cpu.run(out.program.entry);
  const auto& alu = model.component(CutId::kAlu);
  fault::FaultUniverse universe(alu.netlist);
  fault::ObserveSet obs = alu.netlist.output_port("result");
  obs.push_back(alu.netlist.output_port("zero")[0]);
  out.alu_fc = fault::simulate_comb_parallel(alu.netlist,
                                             universe.collapsed(),
                                             trace.alu_patterns(), obs)
                   .percent();
  return out;
}

// The deterministic pattern list shared by the Figure 1 / Figure 2 styles:
// a small constrained-ATPG set for the ALU adder through addu.
std::vector<AluOpnd> atpg_add_patterns(const ProcessorModel& model,
                                       std::size_t limit) {
  const netlist::Netlist& nl = model.component(CutId::kAlu).netlist;
  fault::FaultUniverse universe(nl);
  atpg::InputConstraints cons;
  cons.fix_port(nl, "op",
                static_cast<std::uint64_t>(rtlgen::AluOp::kAdd));
  atpg::TestGenOptions tg;
  tg.random_warmup = 0;
  tg.podem.backtrack_limit = 50000;
  const atpg::TestGenResult res =
      atpg::generate_atpg_tests(nl, universe.collapsed(), cons, tg);
  std::vector<AluOpnd> out;
  for (std::size_t i = 0; i < res.patterns.size() && i < limit; ++i) {
    out.push_back({rtlgen::AluOp::kAdd,
                   static_cast<std::uint32_t>(res.patterns.value_of(i, "a")),
                   static_cast<std::uint32_t>(res.patterns.value_of(i, "b"))});
  }
  return out;
}

void print_listing_head(const StyleRun& run, unsigned lines) {
  std::printf("--- %s: generated routine (first %u instructions) ---\n",
              run.label.c_str(), lines);
  const auto& words = run.program.image.words;
  const auto& section = run.program.sections[0];
  for (unsigned i = 0; i < lines; ++i) {
    const std::uint32_t addr = section.begin_addr + i * 4;
    if (addr >= section.end_addr) break;
    const std::uint32_t w = words[(addr - run.program.image.base) / 4];
    std::printf("  0x%04x: %08x  %s\n", addr, w,
                isa::disassemble(w, addr).c_str());
  }
  std::puts("  ...");
}

}  // namespace

int main() {
  std::puts("==============================================================");
  std::puts(" F1-F4: the four self-test code styles (paper Figures 1-4)");
  std::puts("==============================================================");
  ProcessorModel model;

  const auto det = atpg_add_patterns(model, 24);
  std::printf("deterministic ATPG set for the constrained ALU adder: %zu "
              "patterns\n\n",
              det.size());

  std::vector<StyleRun> runs;
  runs.push_back(run_style(model, "Fig.1 AtpgD (I) immediate",
                           make_fig1_immediate_routine(det)));
  runs.push_back(run_style(
      model, "Fig.2 AtpgD (L) data fetch",
      make_fig2_datafetch_routine(det, rtlgen::AluOp::kAdd)));
  runs.push_back(run_style(model, "Fig.3 PR (L) software LFSR",
                           make_fig3_lfsr_routine(rtlgen::AluOp::kAdd,
                                                  0x13572468u, 0x2468ace1u,
                                                  256)));
  runs.push_back(run_style(model, "Fig.4 RegD (L) regular loop",
                           make_fig4_regular_routine(rtlgen::AluOp::kAdd)));

  for (const StyleRun& run : runs) print_listing_head(run, 10);

  std::puts("");
  std::puts("Code-style characteristics (paper section 3.3 analysis):");
  Table t({"Style", "Patterns", "Code (words)", "Total image (words)",
           "CPU cycles", "Loads", "Stores", "Stalls", "ALU adder FC (%)"});
  for (const StyleRun& run : runs) {
    t.add_row({run.label,
               Table::num(static_cast<std::uint64_t>(
                   run.routine.pattern_count)),
               Table::num(static_cast<std::uint64_t>(
                   run.program.sections[0].size_words())),
               Table::num(static_cast<std::uint64_t>(
                   run.program.image.size_words())),
               Table::num(run.stats.cpu_cycles),
               Table::num(run.stats.loads), Table::num(run.stats.stores),
               Table::num(run.stats.pipeline_stall_cycles),
               Table::num(run.alu_fc, 1)});
  }
  t.print();

  std::puts("");
  std::puts("Checks against the paper's claims:");
  std::printf(
      "  Fig.1 code grows linearly with patterns; Fig.2 code is constant "
      "(patterns moved to data memory: %zu loads vs %zu).\n",
      static_cast<std::size_t>(runs[1].stats.loads),
      static_cast<std::size_t>(runs[0].stats.loads));
  std::printf(
      "  Fig.3 applies %zu pseudorandom patterns from a 5-instruction "
      "LFSR step per operand; code stays small (%zu words).\n",
      runs[2].routine.pattern_count,
      runs[2].program.sections[0].size_words());
  std::printf(
      "  Fig.4 applies %zu regular patterns from a %zu-word nested loop "
      "(constant code size, linear run time).\n",
      runs[3].routine.pattern_count,
      runs[3].program.sections[0].size_words());

  // Figure-2 trade-off sweep: immediate vs data-fetch execution time as a
  // function of pattern count (the paper: "selection is mainly based on
  // test routine execution time and ... CPI ... of instruction lw").
  std::puts("");
  std::puts("Fig.1-vs-Fig.2 execution-time crossover (pattern sweep):");
  Table x({"Patterns", "Fig.1 cycles", "Fig.2 cycles", "Fig.1 words",
           "Fig.2 words (code+data)"});
  for (std::size_t n : {4u, 8u, 16u, 24u}) {
    std::vector<AluOpnd> subset(det.begin(),
                                det.begin() + std::min(n, det.size()));
    const StyleRun f1 = run_style(model, "f1",
                                  make_fig1_immediate_routine(subset));
    const StyleRun f2 = run_style(
        model, "f2",
        make_fig2_datafetch_routine(subset, rtlgen::AluOp::kAdd));
    x.add_row({Table::num(static_cast<std::uint64_t>(subset.size())),
               Table::num(f1.stats.cpu_cycles),
               Table::num(f2.stats.cpu_cycles),
               Table::num(static_cast<std::uint64_t>(
                   f1.program.sections[0].size_words())),
               Table::num(static_cast<std::uint64_t>(
                   f2.program.image.size_words()))});
  }
  x.print();
  return 0;
}

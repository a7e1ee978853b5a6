// Experiment E1 — the execution-time requirement of paper §2/§4:
//
//   CPU-execution-time = clock-cycle-time * (CPU-clock-cycles
//       + pipeline-stall-cycles + memory-stall-cycles)
//
// The paper's headline: 808 words / 9,905 CPU cycles; assuming an average
// instruction/data cache miss rate of 5% and a 20-cycle penalty the test
// runs in < 12,000 cycles, i.e. < 200 us at 57 MHz — far below a quantum
// (hundreds of ms). This bench evaluates both the analytic model (miss-rate
// sweep) and measured direct-mapped caches of several sizes.
#include <chrono>
#include <cstdio>
#include <functional>

#include "common/tablefmt.hpp"
#include "core/evaluate.hpp"
#include "sim/exec.hpp"

using namespace sbst;
using namespace sbst::core;

namespace {

// Wall-clock instruction throughput of one run() variant. Repeats until the
// sample is long enough to trust (>= 0.2 s), never fewer than 8 runs.
double instructions_per_sec(const std::function<sim::ExecStats()>& run_once) {
  using clock = std::chrono::steady_clock;
  std::uint64_t instructions = 0;
  std::size_t iterations = 0;
  const clock::time_point start = clock::now();
  double elapsed = 0.0;
  do {
    instructions += run_once().instructions;
    ++iterations;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (iterations < 8 || elapsed < 0.2);
  return static_cast<double>(instructions) / elapsed;
}

}  // namespace

int main() {
  std::puts("==============================================================");
  std::puts(" E1: execution-time model (CPU-time equation, paper s2/s4)");
  std::puts("==============================================================");
  constexpr double kClockHz = 57e6;  // the paper's Plasma clock
  constexpr double kQuantumS = 0.2;  // representative round-robin quantum

  ProcessorModel model;
  TestProgramBuilder builder;
  builder.add_default_routines(model);
  const TestProgram program = builder.build();

  // Base execution without cache stalls.
  EvalOptions base;
  base.cpu.icache.enabled = false;
  base.cpu.dcache.enabled = false;
  sim::Cpu cpu(base.cpu);
  cpu.reset();
  cpu.load(program.image);
  const sim::ExecStats stats = cpu.run(program.entry);

  std::printf("SBST program: %zu words, %llu instructions, %llu CPU cycles,"
              " %llu pipeline stalls, %llu data refs\n\n",
              program.image.size_words(),
              static_cast<unsigned long long>(stats.instructions),
              static_cast<unsigned long long>(stats.cpu_cycles),
              static_cast<unsigned long long>(stats.pipeline_stall_cycles),
              static_cast<unsigned long long>(stats.data_references()));

  std::puts("Analytic model: total cycles and time vs miss rate x penalty");
  Table t({"Miss rate (%)", "Penalty (cycles)", "Total cycles", "Time (us)",
           "Fraction of quantum (%)"});
  for (double miss : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    for (unsigned penalty : {10u, 20u, 50u}) {
      const std::uint64_t cycles = stats.analytic_total_cycles(miss, penalty);
      const double us = 1e6 * static_cast<double>(cycles) / kClockHz;
      t.add_row({Table::num(100 * miss, 0),
                 Table::num(static_cast<std::uint64_t>(penalty)),
                 Table::num(cycles), Table::num(us, 1),
                 Table::num(100 * us / 1e6 / kQuantumS, 4)});
    }
  }
  t.print();
  const std::uint64_t paper_point = stats.analytic_total_cycles(0.05, 20);
  const double paper_us = 1e6 * static_cast<double>(paper_point) / kClockHz;
  std::printf(
      "\nPaper's operating point (5%% miss, 20-cycle penalty): %llu cycles "
      "= %.1f us at 57 MHz.\n"
      "The paper's 808-word program fits in <12,000 cycles (<200 us); ours "
      "is ~2x larger but, like theirs, consumes a vanishing %.3f%% of a "
      "200 ms quantum -- the section-2 requirement holds.\n",
      static_cast<unsigned long long>(paper_point), paper_us,
      100 * paper_us / 1e6 / kQuantumS);

  // Measured caches.
  std::puts("\nMeasured direct-mapped caches (20-cycle miss penalty):");
  Table m({"I$ size", "D$ size", "I-miss rate (%)", "D-miss rate (%)",
           "Memory stalls", "Total cycles", "Time (us)"});
  struct CacheCase {
    unsigned ilines, dlines;
  };
  for (const CacheCase& c : {CacheCase{32, 16}, CacheCase{128, 64},
                             CacheCase{512, 256}, CacheCase{2048, 512}}) {
    EvalOptions opts;
    opts.cpu.icache = {.enabled = true, .line_words = 4, .lines = c.ilines,
                       .miss_penalty = 20};
    opts.cpu.dcache = {.enabled = true, .line_words = 4, .lines = c.dlines,
                       .miss_penalty = 20};
    sim::Cpu cached(opts.cpu);
    cached.reset();
    cached.load(program.image);
    const sim::ExecStats s = cached.run(program.entry);
    const double imiss = s.icache_accesses == 0
                             ? 0
                             : 100.0 * static_cast<double>(s.icache_misses) /
                                   static_cast<double>(s.icache_accesses);
    const double dmiss = s.dcache_accesses == 0
                             ? 0
                             : 100.0 * static_cast<double>(s.dcache_misses) /
                                   static_cast<double>(s.dcache_accesses);
    const double us = 1e6 * static_cast<double>(s.total_cycles()) / kClockHz;
    m.add_row({std::to_string(c.ilines * 16) + " B",
               std::to_string(c.dlines * 16) + " B", Table::num(imiss, 2),
               Table::num(dmiss, 2), Table::num(s.memory_stall_cycles),
               Table::num(s.total_cycles()), Table::num(us, 1)});
  }
  m.print();

  // A3: §2's pipeline remarks made measurable. (a) Without forwarding, the
  // same routines are rescheduled with nops ("nop instructions are inserted
  // accordingly when forwarding is not supported"); (b) with branch
  // prediction instead of a delay slot, "pipeline stalls are unavoidable".
  std::puts("\nPipeline-variant ablation (ALU routine):");
  {
    Table v({"Machine", "Program words", "CPU cycles", "Pipeline stalls"});
    TestProgramBuilder fw_builder;
    const TestProgram fw_prog =
        fw_builder.build_standalone(make_alu_routine());
    CodegenOptions nf_opts;
    nf_opts.schedule_for_no_forwarding = true;
    TestProgramBuilder nf_builder(nf_opts);
    const TestProgram nf_prog =
        nf_builder.build_standalone(make_alu_routine());

    auto row = [&](const char* label, const TestProgram& p,
                   const sim::CpuConfig& cfg) {
      sim::Cpu c(cfg);
      c.reset();
      c.load(p.image);
      const sim::ExecStats s = c.run(p.entry);
      v.add_row({label, Table::num(static_cast<std::uint64_t>(
                            p.image.size_words())),
                 Table::num(s.cpu_cycles),
                 Table::num(s.pipeline_stall_cycles)});
    };
    sim::CpuConfig plain;
    plain.icache.enabled = plain.dcache.enabled = false;
    sim::CpuConfig no_fwd = plain;
    no_fwd.forwarding = false;
    sim::CpuConfig predicted = plain;
    predicted.branch_taken_penalty = 2;
    row("forwarding + delay slot (Plasma)", fw_prog, plain);
    row("no forwarding, unscheduled code", fw_prog, no_fwd);
    row("no forwarding, nop-scheduled code", nf_prog, no_fwd);
    row("predict-not-taken (2-cycle flush)", fw_prog, predicted);
    v.print();
  }

  // Locality claims: compact loops vs straight-line under a tiny cache.
  std::puts("\nLocality check (paper s2): loop styles have lower instruction"
            " miss rates than straight-line code under a small I-cache");
  TestProgramBuilder b2;
  const Routine fig4 = make_fig4_regular_routine(rtlgen::AluOp::kAdd);
  const Routine alu = make_alu_routine();
  Table l({"Routine", "Style", "Instructions", "I-misses",
           "I-miss rate (%)"});
  for (const Routine* r : {&fig4, &alu}) {
    const TestProgram p = b2.build_standalone(*r);
    sim::CpuConfig cfg;
    cfg.icache = {.enabled = true, .line_words = 4, .lines = 16,
                  .miss_penalty = 20};
    sim::Cpu c(cfg);
    c.reset();
    c.load(p.image);
    const sim::ExecStats s = c.run(p.entry);
    l.add_row({r->name, r->style, Table::num(s.instructions),
               Table::num(s.icache_misses),
               Table::num(100.0 * static_cast<double>(s.icache_misses) /
                              static_cast<double>(s.icache_accesses),
                          2)});
  }
  l.print();

  // Machine-readable throughput sample for CI trend tracking: interpreter
  // vs decoded core vs decoded-with-trace-sink on the full SBST program.
  // Goes to BENCH_exec.json + stderr only; stdout above is diffed in CI.
  {
    struct NullTrace {
      void on_instruction_start(std::uint32_t) {}
      void on_alu(rtlgen::AluOp, std::uint32_t, std::uint32_t) {}
      void on_shift(rtlgen::ShiftOp, std::uint32_t, std::uint32_t) {}
      void on_mult(std::uint32_t, std::uint32_t) {}
      void on_div(std::uint32_t, std::uint32_t) {}
      void on_regfile(std::uint8_t, std::uint32_t, bool, std::uint8_t,
                      std::uint8_t) {}
      void on_mem(std::uint32_t, std::uint32_t, rtlgen::MemSize, bool, bool,
                  std::uint32_t) {}
      void on_control(std::uint8_t, std::uint8_t) {}
      void on_forward(std::uint8_t, std::uint8_t, std::uint8_t, bool,
                      std::uint8_t, bool) {}
      void on_branch_flush() {}
      void on_branch_target(std::uint32_t, std::uint32_t) {}
    };
    sim::Cpu bench_cpu(base.cpu);
    bench_cpu.load(program.image);
    const double interp = instructions_per_sec([&] {
      bench_cpu.reset();
      return bench_cpu.run_interpreter(program.entry);
    });
    const double decoded = instructions_per_sec([&] {
      bench_cpu.reset();
      return bench_cpu.run(program.entry);
    });
    NullTrace trace;
    const double traced = instructions_per_sec([&] {
      bench_cpu.reset();
      sim::TraceSink<NullTrace> sink{&trace};
      return bench_cpu.run_sink(program.entry, sink);
    });
    if (std::FILE* f = std::fopen("BENCH_exec.json", "w")) {
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"exec_time_model\",\n"
                   "  \"program_words\": %zu,\n"
                   "  \"instructions_per_run\": %llu,\n"
                   "  \"interpreter_instr_per_sec\": %.0f,\n"
                   "  \"decoded_instr_per_sec\": %.0f,\n"
                   "  \"traced_instr_per_sec\": %.0f,\n"
                   "  \"decoded_speedup_vs_interpreter\": %.3f,\n"
                   "  \"traced_speedup_vs_interpreter\": %.3f\n"
                   "}\n",
                   program.image.size_words(),
                   static_cast<unsigned long long>(stats.instructions),
                   interp, decoded, traced, decoded / interp,
                   traced / interp);
      std::fclose(f);
    }
    std::fprintf(stderr,
                 "# throughput (Minstr/s): interpreter %.1f, decoded %.1f "
                 "(%.2fx), traced %.1f (%.2fx) -> BENCH_exec.json\n",
                 interp / 1e6, decoded / 1e6, decoded / interp, traced / 1e6,
                 traced / interp);
  }
  return 0;
}

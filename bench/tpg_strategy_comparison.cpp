// Experiment E2 — the §3.3 TPG-strategy applicability analysis:
//   * deterministic ATPG: few patterns, needs gate-level model
//   * pseudorandom: code-cheap but needs many patterns (FC vs N curves;
//     random-pattern-resistant structures plateau)
//   * regular deterministic: constant/linear sets, implementation
//     independent, the workhorse for regular D-VCs
// Compared on the ALU and the shifter, with routine-level costs.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "atpg/testgen.hpp"
#include "store/artifact_store.hpp"
#include "common/tablefmt.hpp"
#include "conform/excite.hpp"
#include "conform/gen.hpp"
#include "core/codegen.hpp"
#include "core/program.hpp"
#include "core/session.hpp"
#include "core/tpg.hpp"
#include "fault/sim_parallel.hpp"
#include "sim/cpu.hpp"

using namespace sbst;
using namespace sbst::core;

namespace {

struct CutUnderStudy {
  const char* name;
  CutId id;
  const netlist::Netlist* nl;
  fault::ObserveSet observe;
};

// Grades on the session pool with the session's cached compiled netlist;
// coverage percentages are identical to the serial reference grading.
double grade(GradingSession& session, const CutUnderStudy& cut,
             const fault::PatternSet& ps,
             const std::vector<fault::Fault>& faults) {
  fault::SimOptions sim;
  sim.pool = &session.pool();
  sim.compiled = &session.compiled(cut.id);
  sim.lanes = session.lanes();
  sim.netlist_opt = session.options().netlist_opt;
  return fault::simulate_comb_parallel(*cut.nl, faults, ps, cut.observe, sim)
      .percent();
}

}  // namespace

int main() {
  std::puts("==============================================================");
  std::puts(" E2: TPG strategy applicability (paper s3.3)");
  std::puts("==============================================================");
  ProcessorModel model;
  // Pin the grading configuration explicitly: lane width and compile-opt
  // setting key the session's compiled-netlist cache, so relying on env
  // defaults would make bench numbers (and cache keys) vary run to run.
  // SBST_STORE is honored like the CLI honors it: a second bench run
  // against the same store reloads the ATPG pattern sets (and the other
  // persisted artifacts) instead of re-deriving them.
  SessionOptions sopts{.lanes = 1, .netlist_opt = 0};
  if (const char* spec = std::getenv("SBST_STORE")) {
    sopts.store = std::make_shared<store::ArtifactStore>(
        store::ArtifactStore::resolve_dir(spec));
  }
  GradingSession session(model, sopts);
  const auto& alu_info = model.component(CutId::kAlu);
  const auto& sh_info = model.component(CutId::kShifter);

  fault::ObserveSet alu_obs = alu_info.netlist.output_port("result");
  alu_obs.push_back(alu_info.netlist.output_port("zero")[0]);
  const CutUnderStudy cuts[] = {
      {"ALU", CutId::kAlu, &alu_info.netlist, alu_obs},
      {"Shifter", CutId::kShifter, &sh_info.netlist,
       sh_info.netlist.output_nets()},
  };

  for (const CutUnderStudy& cut : cuts) {
    const fault::FaultUniverse& universe = session.universe(cut.id);
    std::printf("\n--- %s: %zu collapsed faults (%zu uncollapsed) ---\n",
                cut.name, universe.size(), universe.uncollapsed_count());

    // Pseudorandom FC-vs-N curve.
    Table r({"Pseudorandom N", "FC (%)"});
    for (std::size_t n : {16u, 32u, 64u, 128u, 256u, 512u, 1024u, 4096u}) {
      const fault::PatternSet ps = atpg::generate_random_tests(*cut.nl, n, 7);
      r.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(grade(session, cut, ps, universe.collapsed()),
                            2)});
    }
    r.print();

    // Deterministic ATPG (unconstrained here; the shifter routine uses the
    // per-op constrained variant). Generated through the session's named
    // pattern-set slot: the tag names the generator configuration, so with
    // a persistent store the PODEM run happens once and later bench
    // invocations reload the patterns instead of re-deriving them.
    const fault::PatternSet& det = session.patterns(
        cut.id, "atpg-podem-bt200000",
        [&](const netlist::Netlist& nl) {
          atpg::TestGenOptions tg;
          tg.random_warmup = 0;
          tg.podem.backtrack_limit = 200000;
          tg.compiled = &session.compiled(cut.id);
          return atpg::generate_atpg_tests(nl, universe.collapsed(), {}, tg,
                                           cut.observe)
              .patterns;
        });
    std::printf("deterministic ATPG: %zu patterns -> FC %.2f%%\n",
                det.size(),
                grade(session, cut, det, universe.collapsed()));

    // Regular deterministic.
    fault::PatternSet regular(*cut.nl);
    if (cut.nl == &alu_info.netlist) {
      regular = alu_pattern_set(*cut.nl, regular_alu_tests(32));
    } else {
      regular = shifter_pattern_set(*cut.nl, regular_shifter_tests(32));
    }
    std::printf("regular deterministic: %zu patterns -> FC %.2f%%\n",
                regular.size(),
                grade(session, cut, regular, universe.collapsed()));
  }

  // Routine-level costs on the ALU: same strategy comparison, but measured
  // as executable self-test routines.
  std::puts("\nRoutine-level comparison on the ALU (executable code):");
  TestProgramBuilder builder;
  struct Row {
    const char* label;
    Routine routine;
  };
  const std::vector<AluOpnd> regs = regular_alu_tests(32);
  const std::vector<AluOpnd> first16(regs.begin(), regs.begin() + 16);
  Row rows[] = {
      {"RegD (L + I) full routine", make_alu_routine()},
      {"PR (L), 1024 iterations",
       make_fig3_lfsr_routine(rtlgen::AluOp::kAdd, 0x1357u, 0x2468u, 1024)},
      {"AtpgD (I), 16 immediates", make_fig1_immediate_routine(first16)},
  };
  Table t({"Strategy/routine", "Words", "CPU cycles", "Data refs"});
  for (const Row& row : rows) {
    const TestProgram p = builder.build_standalone(row.routine);
    sim::Cpu cpu;
    cpu.reset();
    cpu.load(p.image);
    const sim::ExecStats s = cpu.run(p.entry);
    t.add_row({row.label,
               Table::num(static_cast<std::uint64_t>(
                   p.sections[0].size_words())),
               Table::num(s.cpu_cycles), Table::num(s.data_references())});
  }
  t.print();

  // A fourth source: the randomized conformance corpus replayed with the
  // coverage tracer. Single-instruction cases with random pre-states are an
  // instruction-level pseudorandom TPG — notably for the hidden components
  // (forwarding logic) no dedicated routine excites directly.
  std::puts("\nCorpus-derived excitation (conformance pre-states as TPG):");
  const conform::CaseGen corpus_gen({.seed = 11, .count = 440});
  const conform::Corpus corpus = corpus_gen.generate();
  const conform::CorpusExcitation excite(model, corpus);
  const CutId corpus_cuts[] = {CutId::kForwarding, CutId::kBranchAdder};
  Table ct({"Component", "Class", "Patterns", "FC (%)"});
  for (const CutId id : corpus_cuts) {
    const auto& info = model.component(id);
    const fault::FaultUniverse& universe = session.universe(id);
    const fault::PatternSet& ps = excite.patterns(id);
    fault::SimOptions sim;
    sim.pool = &session.pool();
    sim.compiled = &session.compiled(id);
    sim.lanes = session.lanes();
    sim.netlist_opt = session.options().netlist_opt;
    const double fc =
        fault::simulate_comb_parallel(
            info.netlist, universe.collapsed(), ps,
            session.observe(id, ObserveMode::kArchitectural), sim)
            .percent();
    ct.add_row({info.name, class_name(info.cls),
                Table::num(static_cast<std::uint64_t>(ps.size())),
                Table::num(fc, 2)});
  }
  ct.print();
  std::printf("corpus: %zu cases, %zu classes (seed 11)\n",
              corpus.cases.size(),
              conform::corpus_class_names(corpus).size());

  std::puts("\nConclusions checked (paper s3.3):");
  std::puts(" - ATPG yields the smallest pattern counts but needs the");
  std::puts("   gate-level model and per-instruction constraints.");
  std::puts(" - Pseudorandom needs orders of magnitude more patterns to");
  std::puts("   approach deterministic coverage (execution time grows");
  std::puts("   linearly with N).");
  std::puts(" - Regular deterministic reaches near-ATPG coverage from a");
  std::puts("   constant/linear, implementation-independent set -- the");
  std::puts("   right choice for the regular D-VCs that dominate area.");
  return 0;
}

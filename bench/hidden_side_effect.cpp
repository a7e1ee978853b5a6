// Experiment E4b — the §3.2 side-effect claims:
//  * "hidden components, especially those used for data pipelining, are
//    sufficiently tested as a side-effect of testing the D-VCs";
//  * A-VCs are "partially tested as a side-effect of testing the D-VCs"
//    and are deliberately not targeted by the periodic test.
#include <cstdio>

#include "common/tablefmt.hpp"
#include "core/evaluate.hpp"

using namespace sbst;
using namespace sbst::core;

namespace {

ProgramEvaluation eval_with(const ProcessorModel& model,
                            TestProgramBuilder& builder,
                            const EvalOptions& opts = {}) {
  const TestProgram program = builder.build();
  return evaluate_program(model, builder, program, opts);
}

}  // namespace

int main() {
  std::puts("==============================================================");
  std::puts(" E4b: hidden-component and A-VC side-effect coverage");
  std::puts("==============================================================");
  ProcessorModel model;

  // Full program vs a single D-VC routine: even one routine's instruction
  // stream exercises the forwarding unit and pipeline registers.
  TestProgramBuilder full;
  full.add_default_routines(model);
  const ProgramEvaluation ev_full = eval_with(model, full);

  TestProgramBuilder only_alu;
  only_alu.add(make_alu_routine());
  const ProgramEvaluation ev_alu = eval_with(model, only_alu);

  std::puts("Hidden components: no routine ever targets them, yet --");
  Table t({"HC", "FC from ALU routine alone (%)",
           "FC from full program (%)"});
  for (CutId id : {CutId::kForwarding, CutId::kPipeline}) {
    t.add_row({model.component(id).name,
               Table::num(ev_alu.cut(id).coverage.percent(), 1),
               Table::num(ev_full.cut(id).coverage.percent(), 1)});
  }
  t.print();

  // A-VC ablation: what would including the MAR as an observation point buy
  // (i.e. what the periodic test deliberately leaves on the table).
  std::puts("\nA-VC ablation on the memory controller:");
  EvalOptions with_avc;
  with_avc.observe_address_outputs = true;
  const ProgramEvaluation ev_avc = eval_with(model, full, with_avc);
  Table a({"Observation set", "Memory controller FC (%)",
           "Overall FC (%)"});
  a.add_row({"periodic (MAR excluded)",
             Table::num(ev_full.cut(CutId::kMemCtrl).coverage.percent(), 1),
             Table::num(ev_full.overall_fc(), 1)});
  a.add_row({"with A-VC MAR observed",
             Table::num(ev_avc.cut(CutId::kMemCtrl).coverage.percent(), 1),
             Table::num(ev_avc.overall_fc(), 1)});
  a.print();
  std::puts("-> the A-VC share (MAR) accounts for most of the memory\n"
            "   controller's uncovered faults; testing it would need\n"
            "   distributed memory references that defeat cache locality\n"
            "   (the paper's reason for deferring A-VCs).");

  // Component contribution profile of the full program.
  std::puts("\nMissing-coverage profile (full program):");
  Table m({"Component", "Class", "FC (%)", "Miss. FC (%)"});
  for (const CutCoverage& c : ev_full.cuts) {
    const ComponentInfo& info = model.component(c.id);
    m.add_row({info.name, class_name(info.cls),
               Table::num(c.coverage.percent(), 1),
               Table::num(ev_full.missing_fc(c.id), 2)});
  }
  m.print();
  std::printf("Overall FC: %.2f%% (paper: 95.6%%)\n", ev_full.overall_fc());
  return 0;
}

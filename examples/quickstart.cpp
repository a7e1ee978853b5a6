// Quickstart: the complete SBST flow in ~60 lines.
//
//   1. Build the processor model (components + classification).
//   2. Generate self-test routines and assemble the SBST program.
//   3. Run it on the CPU model and fault-grade the components it targets.
//   4. Inject a gate-level fault and watch the signature catch it.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/evaluate.hpp"
#include "core/inject.hpp"

using namespace sbst;
using namespace sbst::core;

int main() {
  // 1. The Plasma-class processor: every component carries its gate-level
  //    netlist and its paper-§3.2 classification.
  ProcessorModel model;
  std::puts("Processor components (priority order):");
  for (const ComponentInfo* c : model.by_priority()) {
    std::printf("  %-18s %-5s %7.0f GE  excite: %s\n", c->name.c_str(),
                class_name(c->cls), c->gate_equivalents(),
                c->excite.c_str());
  }

  // 2. A compact SBST program: ALU + shifter + control routines.
  TestProgramBuilder builder;
  builder.add(make_alu_routine())
      .add(make_shifter_routine(model))
      .add(make_control_routine());
  const TestProgram program = builder.build();
  std::printf("\nSBST program: %zu words, %zu routines, signatures at 0x%x\n",
              program.image.size_words(), program.routines.size(),
              program.signature_base);

  // 3. Execute with tracing and grade the targeted components.
  const ProgramEvaluation ev = evaluate_program(model, builder, program);
  std::printf("execution: %llu instructions, %llu cycles, %llu pipeline "
              "stalls, %llu data refs\n",
              static_cast<unsigned long long>(ev.total.instructions),
              static_cast<unsigned long long>(ev.total.cpu_cycles),
              static_cast<unsigned long long>(
                  ev.total.pipeline_stall_cycles),
              static_cast<unsigned long long>(ev.total.data_references()));
  for (CutId cut : {CutId::kAlu, CutId::kShifter, CutId::kControl}) {
    std::printf("  %-14s fault coverage %.2f%%\n",
                model.component(cut).name.c_str(),
                ev.cut(cut).coverage.percent());
  }

  // 4. End-to-end detection: break one gate in the ALU and re-run.
  const netlist::Netlist& alu = model.component(CutId::kAlu).netlist;
  fault::FaultUniverse universe(alu);
  const fault::Fault fault = universe.collapsed()[universe.size() / 2];
  const InjectionOutcome out =
      run_with_injection(model, program, CutId::kAlu, fault);
  std::printf("\ninjected %s into the ALU:\n",
              fault::fault_name(alu, fault).c_str());
  std::printf("  good   signature[ALU slot]: %08x\n",
              out.good_signatures[5]);
  std::printf("  faulty signature[ALU slot]: %08x\n",
              out.faulty_signatures[5]);
  std::printf("  corrupted ALU results during the run: %llu\n",
              static_cast<unsigned long long>(out.corrupted_results));
  std::printf("  => fault %s by the periodic self-test\n",
              out.detected ? "DETECTED" : "missed");
  return out.detected ? 0 : 1;
}

// Periodic self-test demo: an embedded appliance running the SBST program
// on a timer while an intermittent operational fault comes and goes — the
// paper's target deployment (low-cost system, no hardware redundancy).
//
// The demo steps simulated wall-clock time; at every test launch it runs
// the REAL SBST program on the CPU model, injecting the gate-level fault
// only while the intermittent fault process is active, and compares the
// signature words against the golden ones.
#include <cstdio>

#include "core/inject.hpp"
#include "core/periodic.hpp"
#include "core/program.hpp"
#include "sim/cpu.hpp"

using namespace sbst;
using namespace sbst::core;

int main() {
  ProcessorModel model;
  TestProgramBuilder builder;
  builder.add(make_alu_routine());
  const TestProgram program = builder.build();

  // Golden signatures from a fault-free run.
  sim::Cpu golden;
  golden.reset();
  golden.load(program.image);
  golden.run(program.entry);
  std::vector<std::uint32_t> good_sigs;
  for (unsigned s = 0; s < kSignatureSlots; ++s) {
    good_sigs.push_back(golden.read_word(program.signature_address(s)));
  }

  // The operational fault: an intermittent stuck-at in the ALU that is
  // active 300 ms out of every second, arriving at t = 2.4 s.
  const netlist::Netlist& alu = model.component(CutId::kAlu).netlist;
  fault::FaultUniverse universe(alu);
  const fault::Fault fault = universe.collapsed()[42];
  const FaultProcess process{.kind = FaultKind::kIntermittent,
                             .arrival_s = 2.4,
                             .period_s = 1.0,
                             .active_s = 0.3};

  std::printf("appliance boots; SBST timer period 0.7 s; fault %s arrives "
              "at t=%.1fs (intermittent, 30%% duty)\n\n",
              fault::fault_name(alu, fault).c_str(), process.arrival_s);

  const double test_period = 0.7;
  bool detected = false;
  for (int k = 1; k <= 12 && !detected; ++k) {
    const double t = k * test_period;
    const bool active = fault_active_at(process, t);

    sim::Cpu cpu;
    cpu.reset();
    cpu.load(program.image);
    GateLevelFaultInjector injector(model, CutId::kAlu, fault);
    if (active) cpu.set_hooks(&injector);
    cpu.run(program.entry);

    bool mismatch = false;
    for (unsigned s = 0; s < kSignatureSlots; ++s) {
      mismatch |= cpu.read_word(program.signature_address(s)) != good_sigs[s];
    }
    std::printf("t=%5.2fs  self-test run %2d: fault %-8s  signature %s\n",
                t, k, active ? "ACTIVE" : "dormant",
                mismatch ? "MISMATCH -> fault detected!" : "ok");
    if (mismatch) {
      std::printf("\ndetection latency: %.2f s after fault arrival "
                  "(test period %.1f s, duty 30%%)\n",
                  t - process.arrival_s, test_period);
      detected = true;
    }
  }
  if (!detected) {
    std::puts("\nfault escaped this horizon (short duty cycle) -- "
              "shorten the test period to improve the odds");
  }
  return detected ? 0 : 1;
}

// Extension — per-model grading of the SBST streams: the follow-on
// direction of the SBST literature (software-based delay fault testing and
// on-line soft-error screening). The same self-test routines apply pattern
// *pairs* through consecutive instructions; this bench grades the
// stuck-at-oriented pattern streams under every model of the unified fault
// taxonomy (stuck-at / transition / transient-SEU / intermittent) through
// the same FaultUniverse + simulate_comb_parallel front door and shows what
// at-speed SBST buys. The critical-path-traced transition grading is
// cross-checked flag-for-flag against the simulate_serial oracle.
//
// Emits a table to stdout and machine-readable BENCH_transition.json with
// one row per (component, model): model, faults, fc_percent,
// faults_graded_per_sec. The grading rates are wall-clock, so they go to
// BENCH_transition.json and stderr only; stdout is deterministic.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "atpg/testgen.hpp"
#include "common/tablefmt.hpp"
#include "core/evaluate.hpp"

using namespace sbst;
using namespace sbst::core;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr fault::FaultModel kModels[] = {
    fault::FaultModel::kStuckAt, fault::FaultModel::kTransition,
    fault::FaultModel::kTransientSEU, fault::FaultModel::kIntermittent};

struct BenchRow {
  std::string component;
  fault::FaultModel model;
  std::size_t faults = 0;
  double fc = 0;
  double seconds = 0;
  double faults_per_sec = 0;
};

}  // namespace

int main() {
  std::puts("==============================================================");
  std::puts(" Extension: per-model grading of the SBST streams");
  std::puts("==============================================================");
  ProcessorModel model;

  // Capture the real instruction-applied pattern streams.
  TestProgramBuilder builder;
  builder.add(make_alu_routine()).add(make_shifter_routine(model));
  const TestProgram program = builder.build();
  TraceCollector trace(model);
  sim::Cpu cpu;
  cpu.reset();
  cpu.load(program.image);
  cpu.set_hooks(&trace);
  cpu.run(program.entry);

  std::vector<BenchRow> rows;
  Table t({"Component", "Model", "Faults", "FC (%)"});
  struct Cut {
    CutId cut;
    const fault::PatternSet* stream;
  };
  for (const Cut& c : {Cut{CutId::kAlu, &trace.alu_patterns()},
                       Cut{CutId::kShifter, &trace.shifter_patterns()}}) {
    const ComponentInfo& info = model.component(c.cut);
    for (const fault::FaultModel fm : kModels) {
      const fault::FaultUniverse universe(info.netlist, fm);
      BenchRow row;
      row.component = info.name;
      row.model = fm;
      row.faults = universe.size();
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = fault::simulate_comb_parallel(
          info.netlist, universe.collapsed(), *c.stream);
      row.seconds = seconds_since(t0);
      row.fc = res.percent();
      row.faults_per_sec = static_cast<double>(row.faults) / row.seconds;
      rows.push_back(row);
      t.add_row({row.component, fault::fault_model_name(fm),
                 Table::num(static_cast<std::uint64_t>(row.faults)),
                 Table::num(row.fc, 2)});
      std::fprintf(stderr, "# %s %s: %.0f faults/s\n", row.component.c_str(),
                   fault::fault_model_name(fm), row.faults_per_sec);

      if (fm == fault::FaultModel::kTransition) {
        // The critical-path-traced transition grading must match the
        // serial per-fault launch/capture oracle flag-for-flag.
        const auto oracle = fault::simulate_serial(
            info.netlist, universe.collapsed(), *c.stream);
        if (oracle.detected_flags != res.detected_flags) {
          std::fprintf(stderr,
                       "FAIL: %s critical-path transition flags differ "
                       "from the simulate_serial oracle\n",
                       info.name.c_str());
          return 1;
        }
      }
    }
  }
  t.print();

  std::puts("\nPattern-pair sensitivity: pseudorandom streams of growing "
            "length on the ALU");
  const netlist::Netlist& alu = model.component(CutId::kAlu).netlist;
  const fault::FaultUniverse stuck(alu);
  const fault::FaultUniverse transition(alu, fault::FaultModel::kTransition);
  Table p({"Random patterns", "Stuck-at FC (%)", "Transition FC (%)"});
  for (std::size_t n : {32u, 128u, 512u, 2048u}) {
    const fault::PatternSet ps = atpg::generate_random_tests(alu, n, 5);
    p.add_row({Table::num(static_cast<std::uint64_t>(n)),
               Table::num(
                   fault::simulate_comb_parallel(alu, stuck.collapsed(), ps)
                       .percent(),
                   2),
               Table::num(fault::simulate_comb_parallel(
                              alu, transition.collapsed(), ps)
                              .percent(),
                          2)});
  }
  p.print();
  std::puts("\n-> transition coverage trails stuck-at coverage (every "
            "detection needs a launch pattern immediately before it), but "
            "at-speed SBST execution delivers it with the same routines -- "
            "the property later delay-fault SBST papers build on.");

  std::FILE* json = std::fopen("BENCH_transition.json", "w");
  if (!json) {
    std::perror("BENCH_transition.json");
    return 1;
  }
  std::fprintf(json, "{\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    std::fprintf(json,
                 "    {\"component\": \"%s\", \"model\": \"%s\", "
                 "\"faults\": %zu, \"fc_percent\": %.2f, "
                 "\"seconds\": %.6f, \"faults_graded_per_sec\": %.0f}%s\n",
                 r.component.c_str(), fault::fault_model_name(r.model),
                 r.faults, r.fc, r.seconds, r.faults_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::puts("wrote BENCH_transition.json");
  return 0;
}

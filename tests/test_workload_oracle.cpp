// The real-workload oracle gate: the production grading of the default SBST
// program (`sbst evaluate`'s plan, every fault model) must agree fault by
// fault with the serial oracle, simulate_serial, on a stride sample of every
// CUT's collapsed fault list. The other differential suites run on small or
// synthetic netlists; this one runs the traced operand streams, observe sets
// and fault universes behind the published coverage numbers.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/program.hpp"
#include "core/session.hpp"
#include "fault/sim.hpp"

namespace sbst::core {
namespace {

using fault::CoverageResult;
using fault::Fault;
using fault::FaultModel;

/// Every kStride-th collapsed fault is graded by the oracle.
constexpr std::size_t kStride = 64;

TEST(WorkloadOracle, SampledFaultsMatchSerialOracleOnEveryCutAndModel) {
  const ProcessorModel model;
  GradingSession session(model, {});
  TestProgramBuilder builder;
  builder.add_default_routines(model);
  const TestProgram program = builder.build();
  EvalOptions options;
  options.fault_models = {FaultModel::kStuckAt, FaultModel::kTransition,
                          FaultModel::kTransientSEU,
                          FaultModel::kIntermittent};
  const ProgramEvaluation production =
      evaluate_program(session, builder, program, options);
  // Ten CUTs under three models, plus transition on the six combinational.
  ASSERT_EQ(production.cuts.size(), 36u);

  // The oracle re-traces the program the same way evaluate_program does and
  // fetches the same observe sets and universes from the session.
  TraceCollector trace(model);
  trace_program(session, program, options, trace);
  const ObserveMode mode = observe_mode(options);
  // Session artifacts are fetched serially; the pool only reads them.
  struct Row {
    const std::vector<Fault>* faults;
    const fault::ObserveSet* observe;
    std::vector<std::size_t> index;  // sampled positions in the universe
    CoverageResult oracle;
  };
  std::vector<Row> rows;
  for (const CutCoverage& cc : production.cuts) {
    Row& row = rows.emplace_back();
    row.faults = &session.universe(cc.id, cc.model).collapsed();
    row.observe = &session.observe(cc.id, mode);
    for (std::size_t f = 0; f < row.faults->size(); f += kStride) {
      row.index.push_back(f);
    }
  }
  session.pool().run_static(rows.size(), [&](std::size_t r) {
    const CutCoverage& cc = production.cuts[r];
    const netlist::Netlist& nl = model.component(cc.id).netlist;
    std::vector<Fault> sample;
    for (std::size_t f : rows[r].index) sample.push_back((*rows[r].faults)[f]);
    const TraceCollector::Stimulus stim = trace.stimulus(cc.id);
    rows[r].oracle =
        stim.patterns
            ? fault::simulate_serial(nl, sample, *stim.patterns,
                                     *rows[r].observe)
            : fault::simulate_serial(nl, sample, *stim.clocked,
                                     *rows[r].observe);
  });

  std::size_t compared = 0, mismatches = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const CutCoverage& cc = production.cuts[r];
    const netlist::Netlist& nl = model.component(cc.id).netlist;
    const std::vector<Fault>& faults = *rows[r].faults;
    for (std::size_t i = 0; i < rows[r].index.size(); ++i) {
      const std::size_t f = rows[r].index[i];
      ++compared;
      if (rows[r].oracle.detected_flags[i] ==
          cc.coverage.detected_flags[f]) {
        continue;
      }
      ++mismatches;
      ADD_FAILURE() << model.component(cc.id).name << " "
                    << fault::fault_model_name(cc.model) << " fault #" << f
                    << " " << fault::fault_name(nl, faults[f])
                    << ": production "
                    << int{cc.coverage.detected_flags[f]} << ", oracle "
                    << int{rows[r].oracle.detected_flags[i]};
    }
  }
  std::printf("# workload oracle: %zu sampled faults over %zu rows, "
              "%zu mismatches\n",
              compared, rows.size(), mismatches);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(compared, 1000u);
}

}  // namespace
}  // namespace sbst::core

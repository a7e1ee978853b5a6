// Experiment T1 + E4 — reproduces paper Table 1:
//   "Component gate count and classification, self-test program statistics
//    and fault coverage of MIPS Plasma for on-line periodic testing"
// plus the §4 area-classification claims (D-VCs dominate the area).
//
// Paper reference values (0.35um synthesis, FlexTest fault grading):
//   Component          Gates   Class      Style       Words  Cycles  Refs  FC%
//   Parallel Mul+Div   11,601  D-VC       RegD (L+I)     68   6,152     2  (n/r)
//   Register File       9,905  D-VC       RegD (I)      278   1,285     1  (n/r)
//   Memory controller   1,119  73% D-VC   RegD (I)       70     229    80  (n/r)
//   Shifter               682  D-VC       AtpgD (I)      77     113     1  (n/r)
//   ALU                   491  D-VC       RegD (L+I)     60      89     1  (n/r)
//   Control Logic         230  PVC        FT             30     117     0  (n/r)
//   Pipeline              885  HC         (side-effect)   -       -     -  (n/r)
//   Total              26,080  92% D-VC                 808   9,905    87  95.6
// Stdout carries no timings: it is identical for every thread count and lane
// width, and CI diffs it against ci/golden/table1_sbst_program.stdout.
#include <cstdio>

#include "common/tablefmt.hpp"
#include "core/evaluate.hpp"

using namespace sbst;
using namespace sbst::core;

namespace {

struct PaperRow {
  const char* component;
  const char* gates;
  const char* cls;
  const char* style;
  const char* words;
  const char* cycles;
  const char* refs;
};

// Table 1 of the paper (mul and div share one row there).
constexpr PaperRow kPaper[] = {
    {"Parallel Mul. + Serial Div.", "11,601", "D-VC", "RegD (L + I)", "68",
     "6,152", "2"},
    {"Register File", "9,905", "D-VC", "RegD (I)", "278", "1,285", "1"},
    {"Memory controller", "1,119", "73% D-VC", "RegD (I)", "70", "229",
     "80"},
    {"Shifter", "682", "D-VC", "AtpgD (I)", "77", "113", "1"},
    {"ALU", "491", "D-VC", "RegD (L + I)", "60", "89", "1"},
    {"Control Logic", "230", "PVC", "FT", "30", "117", "0"},
    {"Pipeline", "885", "HC", "side-effect", "-", "-", "-"},
};

const RoutineStats* find_routine(const ProgramEvaluation& ev,
                                 const std::string& name) {
  for (const RoutineStats& r : ev.routines) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

}  // namespace

int main() {
  std::puts("==============================================================");
  std::puts(" T1: Table 1 reproduction - SBST program for periodic testing");
  std::puts("==============================================================");

  ProcessorModel model;
  TestProgramBuilder builder;
  builder.add_default_routines(model);
  const TestProgram program = builder.build();
  GradingSession session(model);
  const ProgramEvaluation ev = evaluate_program(session, builder, program);

  // ---- measured per-component table ---------------------------------------
  Table t({"Component", "GE (gates)", "Class", "Code Style", "Size (words)",
           "CPU Clock Cycles", "Data Refer.", "FC (%)", "Miss. FC (%)"});
  struct RowSpec {
    CutId cut;
    const char* routine;  // nullptr = side-effect only
  };
  const RowSpec rows[] = {
      {CutId::kMultiplier, "mul"},   {CutId::kDivider, "div"},
      {CutId::kRegisterFile, "rf"},  {CutId::kMemCtrl, "mem"},
      {CutId::kShifter, "shifter"},  {CutId::kAlu, "alu"},
      {CutId::kControl, "ctrl"},     {CutId::kForwarding, nullptr},
      {CutId::kPipeline, nullptr},   {CutId::kBranchAdder, nullptr},
  };
  std::size_t total_words = 0;
  std::uint64_t total_cycles = 0, total_refs = 0;
  for (const RowSpec& row : rows) {
    const ComponentInfo& info = model.component(row.cut);
    const CutCoverage& cc = ev.cut(row.cut);
    std::vector<std::string> cells;
    cells.push_back(info.name);
    cells.push_back(Table::num(static_cast<std::uint64_t>(
        info.gate_equivalents())));
    cells.push_back(class_name(info.cls));
    if (row.routine) {
      const RoutineStats* rs = find_routine(ev, row.routine);
      cells.push_back(rs->style);
      cells.push_back(Table::num(static_cast<std::uint64_t>(rs->size_words)));
      cells.push_back(Table::num(rs->exec.cpu_cycles));
      cells.push_back(Table::num(rs->exec.data_references()));
      total_words += rs->size_words;
      total_cycles += rs->exec.cpu_cycles;
      total_refs += rs->exec.data_references();
    } else {
      cells.push_back("side-effect");
      cells.push_back("-");
      cells.push_back("-");
      cells.push_back("-");
    }
    cells.push_back(Table::num(cc.coverage.percent(), 1));
    cells.push_back(Table::num(ev.missing_fc(row.cut), 2));
    t.add_row(cells);
  }
  t.add_rule();
  t.add_row({"Total",
             Table::num(static_cast<std::uint64_t>(
                 model.total_gate_equivalents())),
             "", "", Table::num(static_cast<std::uint64_t>(total_words)),
             Table::num(total_cycles), Table::num(total_refs),
             Table::num(ev.overall_fc(), 1), ""});
  t.print();

  // ---- paper reference ------------------------------------------------------
  std::puts("");
  std::puts("Paper Table 1 (for comparison; authors' 0.35um synthesis):");
  Table p({"Component", "Gates", "Class", "Code Style", "Size (words)",
           "CPU Clock Cycles", "Data Refer."});
  for (const PaperRow& row : kPaper) {
    p.add_row({row.component, row.gates, row.cls, row.style, row.words,
               row.cycles, row.refs});
  }
  p.add_rule();
  p.add_row({"Total", "26,080", "92% D-VC", "", "808", "9,905", "87"});
  p.print();
  std::puts("Paper overall single stuck-at fault coverage: 95.6 %");

  // ---- E4: classification area shares ---------------------------------------
  std::puts("");
  std::puts("E4: area by classification (paper: D-VCs dominate at 92%)");
  Table a({"Class", "Area share (%)", "Note"});
  a.add_row({"D-VC",
             Table::num(100 * model.class_area_fraction(
                                  ComponentClass::kDataVisible), 1),
             "highest test priority, cache-friendly routines"});
  a.add_row({"A-VC",
             Table::num(100 * model.class_area_fraction(
                                  ComponentClass::kAddressVisible), 1),
             "excluded from periodic testing (distributed refs)"});
  a.add_row({"PVC",
             Table::num(100 * model.class_area_fraction(
                                  ComponentClass::kPartiallyVisible), 1),
             "functional test (all opcodes)"});
  a.add_row({"HC",
             Table::num(100 * model.class_area_fraction(
                                  ComponentClass::kHidden), 1),
             "side-effect of D-VC routines"});
  a.print();

  // ---- §2 stringent-characteristics check ------------------------------------
  std::puts("");
  std::puts("SBST program stringent characteristics (paper section 2):");
  std::printf("  combined program:      %zu words, %llu instructions\n",
              program.image.size_words(),
              static_cast<unsigned long long>(ev.total.instructions));
  std::printf("  pipeline stall cycles: %llu (requirement: 0)\n",
              static_cast<unsigned long long>(
                  ev.total.pipeline_stall_cycles));
  std::printf("  data memory refs:      %llu (paper: 87)\n",
              static_cast<unsigned long long>(ev.total.data_references()));
  const std::uint64_t analytic = ev.total.analytic_total_cycles(0.05, 20);
  const double us = 1e6 * static_cast<double>(analytic) / 57e6;
  std::printf(
      "  CPU cycles %llu; with 5%% miss/20-cycle penalty: %llu cycles = "
      "%.1f us @57MHz\n"
      "  (paper's smaller program: <12,000 cycles = <200 us; both are "
      "<<1%% of a 200 ms quantum: ours %.3f%%)\n",
      static_cast<unsigned long long>(ev.total.cpu_cycles),
      static_cast<unsigned long long>(analytic), us, 100 * us / 1e6 / 0.2);
  std::printf("  signatures unloaded:   %zu words at 0x%x\n",
              program.routines.size(), program.signature_base);

  // ---- ablation: observability requirement ------------------------------------
  std::puts("");
  std::puts("Ablation: architectural vs full-netlist observability");
  EvalOptions full;
  full.architectural_observability = false;
  // Same session: the fault universes and compiled netlists are reused; only
  // the full-netlist observe sets and cones are new.
  const ProgramEvaluation ev_full =
      evaluate_program(session, builder, program, full);
  Table ab({"Component", "FC architectural (%)", "FC full-netlist (%)"});
  for (const RowSpec& row : rows) {
    ab.add_row({model.component(row.cut).name,
                Table::num(ev.cut(row.cut).coverage.percent(), 1),
                Table::num(ev_full.cut(row.cut).coverage.percent(), 1)});
  }
  ab.add_row({"Overall", Table::num(ev.overall_fc(), 1),
              Table::num(ev_full.overall_fc(), 1)});
  ab.print();

  return 0;
}

// TPG explorer: compare the three test-pattern-generation strategies on a
// chosen component and width.
//
// Usage: tpg_explorer [alu|shifter] [width]   (defaults: alu 16)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "atpg/testgen.hpp"
#include "common/tablefmt.hpp"
#include "core/tpg.hpp"
#include "fault/sim_parallel.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/shifter.hpp"

using namespace sbst;
using namespace sbst::core;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "alu";
  const unsigned width = argc > 2
                             ? static_cast<unsigned>(std::atoi(argv[2]))
                             : 16u;
  netlist::Netlist nl =
      which == "shifter" ? rtlgen::build_shifter({.width = width})
                         : rtlgen::build_alu({.width = width});
  std::printf("component: %s, width %u -> %zu gates (%.0f GE), depth %u\n",
              which.c_str(), width, nl.logic_gate_count(),
              nl.gate_equivalents(), nl.depth());

  fault::FaultUniverse universe(nl);
  std::printf("fault universe: %zu collapsed / %zu uncollapsed\n\n",
              universe.size(), universe.uncollapsed_count());

  Table t({"Strategy", "Patterns", "FC (%)", "Notes"});

  // Regular deterministic.
  fault::PatternSet regular =
      which == "shifter"
          ? shifter_pattern_set(nl, regular_shifter_tests(width))
          : alu_pattern_set(nl, regular_alu_tests(width));
  const auto reg_cov =
      fault::simulate_comb_parallel(nl, universe.collapsed(), regular);
  t.add_row({"RegD (regular deterministic)",
             Table::num(static_cast<std::uint64_t>(regular.size())),
             Table::num(reg_cov.percent(), 2),
             "closed-form, implementation independent"});

  // Pseudorandom at several N.
  for (std::size_t n : {64u, 256u, 1024u}) {
    const fault::PatternSet pr = atpg::generate_random_tests(nl, n, 99);
    const auto cov =
        fault::simulate_comb_parallel(nl, universe.collapsed(), pr);
    t.add_row({"PR (software LFSR)",
               Table::num(static_cast<std::uint64_t>(n)),
               Table::num(cov.percent(), 2), "Figure-3 loop equivalent"});
  }

  // Deterministic ATPG.
  atpg::TestGenOptions tg;
  tg.random_warmup = 8;
  tg.podem.backtrack_limit = 100000;
  const atpg::TestGenResult det =
      atpg::generate_atpg_tests(nl, universe.collapsed(), {}, tg);
  char note[96];
  std::snprintf(note, sizeof note, "%zu untestable, %zu aborted",
                det.untestable, det.aborted);
  t.add_row({"AtpgD (PODEM + drop)",
             Table::num(static_cast<std::uint64_t>(det.patterns.size())),
             Table::num(det.coverage.percent(), 2), note});
  t.print();

  // Leftovers of the best strategy.
  const auto undetected = reg_cov.undetected(universe.collapsed());
  std::printf("\nfirst undetected faults under RegD (%zu total):\n",
              undetected.size());
  for (std::size_t i = 0; i < undetected.size() && i < 5; ++i) {
    std::printf("  %s\n", fault::fault_name(nl, undetected[i]).c_str());
  }
  return 0;
}

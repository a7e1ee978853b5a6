#include "core/program.hpp"

#include <stdexcept>

#include "core/schedule.hpp"

namespace sbst::core {

TestProgramBuilder& TestProgramBuilder::add(Routine routine) {
  for (const Routine& existing : routines_) {
    if (existing.name == routine.name) {
      throw std::invalid_argument("duplicate routine name " + routine.name);
    }
    if (existing.sig_slot == routine.sig_slot) {
      throw std::invalid_argument("signature slot clash for " + routine.name);
    }
  }
  routines_.push_back(std::move(routine));
  return *this;
}

TestProgramBuilder& TestProgramBuilder::add_default_routines(
    const ProcessorModel& model) {
  add(make_multiplier_routine());
  add(make_divider_routine());
  add(make_regfile_routine());
  add(make_memctrl_routine());
  add(make_shifter_routine(model));
  add(make_alu_routine());
  add(make_control_routine());
  return *this;
}

namespace {

isa::Program assemble_with_runtime(const std::vector<Routine>& routines,
                                   std::uint32_t base, bool schedule_nops) {
  auto body = [&](const std::string& assembly) {
    return schedule_nops
               ? insert_nops_for_no_forwarding(assembly).assembly
               : assembly;
  };
  std::string text;
  text += "start:\n";
  for (const Routine& r : routines) {
    text += "sec_" + r.name + "_begin:\n";
    text += body(r.assembly);
    text += "sec_" + r.name + "_end:\n";
  }
  text += "  break\n";
  text += body(misr_subroutines());
  text += "signatures:\n  .word 0, 0, 0, 0, 0, 0, 0, 0\n";
  for (const Routine& r : routines) {
    text += r.data_assembly;
  }
  return isa::assemble(text, base);
}

}  // namespace

TestProgram TestProgramBuilder::build(std::uint32_t base) const {
  if (routines_.empty()) {
    throw std::logic_error("TestProgramBuilder: no routines added");
  }
  TestProgram out;
  out.routines = routines_;
  out.image = assemble_with_runtime(routines_, base,
                                    opts_.schedule_for_no_forwarding);
  out.entry = out.image.symbol("start");
  out.signature_base = out.image.symbol("signatures");
  for (const Routine& r : routines_) {
    out.sections.push_back({out.image.symbol("sec_" + r.name + "_begin"),
                            out.image.symbol("sec_" + r.name + "_end")});
  }
  return out;
}

TestProgram TestProgramBuilder::build_standalone(const Routine& routine,
                                                 std::uint32_t base) const {
  TestProgram out;
  out.routines = {routine};
  out.image = assemble_with_runtime({routine}, base,
                                    opts_.schedule_for_no_forwarding);
  out.entry = out.image.symbol("start");
  out.signature_base = out.image.symbol("signatures");
  out.sections.push_back({out.image.symbol("sec_" + routine.name + "_begin"),
                          out.image.symbol("sec_" + routine.name + "_end")});
  return out;
}

}  // namespace sbst::core

#include "core/evaluate.hpp"

#include <chrono>
#include <stdexcept>

#include "fault/sim.hpp"
#include "sim/exec.hpp"

namespace sbst::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t pack32(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

}  // namespace

TraceCollector::TraceCollector(const ProcessorModel& model)
    : alu_(model.component(CutId::kAlu).netlist),
      shifter_(model.component(CutId::kShifter).netlist),
      mul_(model.component(CutId::kMultiplier).netlist),
      control_(model.component(CutId::kControl).netlist),
      fwd_(model.component(CutId::kForwarding).netlist),
      badd_(model.component(CutId::kBranchAdder).netlist),
      div_(model.component(CutId::kDivider).netlist),
      rf_(model.component(CutId::kRegisterFile).netlist),
      mem_(model.component(CutId::kMemCtrl).netlist),
      pipe_(model.component(CutId::kPipeline).netlist) {}

void TraceCollector::on_alu(rtlgen::AluOp op, std::uint32_t a,
                            std::uint32_t b) {
  if (!fresh(alu_seen_, {pack32(a, b), static_cast<std::uint64_t>(op)})) {
    return;
  }
  alu_.add({{"a", a}, {"b", b}, {"op", static_cast<std::uint64_t>(op)}});
}

void TraceCollector::on_shift(rtlgen::ShiftOp op, std::uint32_t value,
                              std::uint32_t shamt) {
  if (!fresh(shift_seen_,
             {pack32(value, shamt), static_cast<std::uint64_t>(op)})) {
    return;
  }
  shifter_.add(
      {{"a", value}, {"shamt", shamt}, {"op", static_cast<std::uint64_t>(op)}});
}

void TraceCollector::on_mult(std::uint32_t a, std::uint32_t b) {
  if (!fresh(mul_seen_, {pack32(a, b), 0})) return;
  mul_.add({{"a", a}, {"b", b}});
}

void TraceCollector::on_div(std::uint32_t dividend, std::uint32_t divisor) {
  // Mirror the serial divider protocol: load, width steps, then idle cycles
  // while the routine's mflo/mfhi/jal sequence reads the results — the
  // divider holds its state through them, exercising the recirculation
  // muxes under observation.
  div_.add_cycle({{"start", 1}, {"dividend", dividend}, {"divisor", divisor}},
                 false);
  for (unsigned i = 0; i < 32; ++i) div_.add_cycle({{"start", 0}}, false);
  div_.add_cycle({{"start", 0}}, true);
  div_.add_cycle({{"start", 0}}, true);
  div_.add_cycle({{"start", 0}}, true);
}

void TraceCollector::on_regfile(std::uint8_t waddr, std::uint32_t wdata,
                                bool wen, std::uint8_t raddr1,
                                std::uint8_t raddr2) {
  if (pc_ < rf_begin_ || pc_ >= rf_end_ || rf_.size() >= rf_cap_) {
    // Still collect the pipeline-register side-effect stream (cheap).
    if (pipe_.size() < pipe_cap_ && wen) {
      pipe_.add_cycle({{"d", wdata}, {"en", 1}, {"flush", 0}}, true);
    }
    return;
  }
  rf_.add_cycle({{"waddr", waddr},
                 {"wdata", wdata},
                 {"wen", wen ? 1 : 0},
                 {"raddr1", raddr1},
                 {"raddr2", raddr2}},
                raddr1 != 0 || raddr2 != 0);
  if (pipe_.size() < pipe_cap_ && wen) {
    pipe_.add_cycle({{"d", wdata}, {"en", 1}, {"flush", 0}}, true);
  }
}

void TraceCollector::on_mem(std::uint32_t addr, std::uint32_t wdata,
                            rtlgen::MemSize size, bool sign, bool wr,
                            std::uint32_t mem_rdata) {
  mem_.add_cycle({{"addr", addr},
                  {"wdata", wdata},
                  {"size", static_cast<std::uint64_t>(size)},
                  {"sign", sign ? 1 : 0},
                  {"wr", wr ? 1 : 0},
                  {"en", 1}},
                 false);
  mem_.add_cycle({{"mem_rdata", mem_rdata},
                  {"size", static_cast<std::uint64_t>(size)},
                  {"sign", sign ? 1 : 0},
                  {"en", 0}},
                 true);
}

void TraceCollector::on_branch_target(std::uint32_t pc_plus4,
                                      std::uint32_t offset) {
  if (!fresh(badd_seen_, {pack32(pc_plus4, offset), 0})) return;
  badd_.add({{"pc", pc_plus4}, {"offset", offset}});
}

void TraceCollector::on_branch_flush() {
  if (pipe_.size() < pipe_cap_) {
    pipe_.add_cycle({{"d", 0xdeadbeefu}, {"en", 1}, {"flush", 1}}, true);
  }
}

void TraceCollector::on_control(std::uint8_t opcode, std::uint8_t funct) {
  // The decoder physically sees the funct field for every instruction (for
  // I-types it aliases the low immediate bits); it must ignore it unless
  // the opcode is R-type — and a fault breaking that is observable.
  if (!fresh(control_seen_,
             {(static_cast<std::uint64_t>(opcode) << 8) | funct, 0})) {
    return;
  }
  control_.add({{"opcode", opcode}, {"funct", funct}});
}

void TraceCollector::on_forward(std::uint8_t rs, std::uint8_t rt,
                                std::uint8_t ex_rd, bool ex_wen,
                                std::uint8_t mem_rd, bool mem_wen) {
  const std::uint64_t key = static_cast<std::uint64_t>(rs) |
                            (static_cast<std::uint64_t>(rt) << 8) |
                            (static_cast<std::uint64_t>(ex_rd) << 16) |
                            (static_cast<std::uint64_t>(mem_rd) << 24) |
                            (static_cast<std::uint64_t>(ex_wen) << 32) |
                            (static_cast<std::uint64_t>(mem_wen) << 33);
  if (!fresh(fwd_seen_, {key, 0})) return;
  fwd_.add({{"rs", rs},
            {"rt", rt},
            {"ex_rd", ex_rd},
            {"ex_wen", ex_wen ? 1 : 0},
            {"mem_rd", mem_rd},
            {"mem_wen", mem_wen ? 1 : 0}});
}

ObserveMode observe_mode(const EvalOptions& options) {
  if (!options.architectural_observability) return ObserveMode::kFullNetlist;
  return options.observe_address_outputs
             ? ObserveMode::kArchitecturalPlusAddress
             : ObserveMode::kArchitectural;
}

fault::ObserveSet observation_points(const ComponentInfo& info,
                                     const EvalOptions& options) {
  return observation_points(info, observe_mode(options));
}

const CutCoverage& ProgramEvaluation::cut(CutId id) const {
  for (const CutCoverage& c : cuts) {
    if (c.id == id) return c;
  }
  throw std::out_of_range("ProgramEvaluation: unknown cut");
}

const CutCoverage& ProgramEvaluation::cut(CutId id,
                                          fault::FaultModel model) const {
  for (const CutCoverage& c : cuts) {
    if (c.id == id && c.model == model) return c;
  }
  throw std::out_of_range("ProgramEvaluation: cut not graded under model");
}

double ProgramEvaluation::overall_fc() const {
  std::size_t total = 0, detected = 0;
  for (const CutCoverage& c : cuts) {
    total += c.coverage.total;
    detected += c.coverage.detected;
  }
  return total == 0 ? 100.0
                    : 100.0 * static_cast<double>(detected) /
                          static_cast<double>(total);
}

double ProgramEvaluation::missing_fc(CutId id) const {
  std::size_t total = 0;
  for (const CutCoverage& c : cuts) total += c.coverage.total;
  const CutCoverage& c = cut(id);
  return total == 0 ? 0.0
                    : 100.0 *
                          static_cast<double>(c.coverage.total -
                                              c.coverage.detected) /
                          static_cast<double>(total);
}

TraceCollector::Stimulus TraceCollector::stimulus(CutId id) const {
  switch (id) {
    case CutId::kAlu: return {&alu_, nullptr};
    case CutId::kShifter: return {&shifter_, nullptr};
    case CutId::kMultiplier: return {&mul_, nullptr};
    case CutId::kControl: return {&control_, nullptr};
    case CutId::kForwarding: return {&fwd_, nullptr};
    case CutId::kBranchAdder: return {&badd_, nullptr};
    case CutId::kDivider: return {nullptr, &div_};
    case CutId::kRegisterFile: return {nullptr, &rf_};
    case CutId::kMemCtrl: return {nullptr, &mem_};
    case CutId::kPipeline: return {nullptr, &pipe_};
  }
  throw std::out_of_range("TraceCollector: unknown cut");
}

ProgramEvaluation trace_program(GradingSession& session,
                                const TestProgram& program,
                                const EvalOptions& options,
                                TraceCollector& trace) {
  ProgramEvaluation out;
  trace.set_regfile_cycle_cap(options.regfile_cycle_cap);
  trace.set_pipeline_cycle_cap(options.pipeline_cycle_cap);
  for (std::size_t i = 0; i < program.routines.size(); ++i) {
    if (program.routines[i].target == CutId::kRegisterFile) {
      trace.restrict_regfile(program.sections[i].begin_addr,
                             program.sections[i].end_addr);
    }
  }
  sim::Cpu cpu(options.cpu);
  cpu.reset();
  cpu.load(program.image, session.decoded(program.image));
  sim::TraceSink<TraceCollector> sink{&trace};  // devirtualized event sink
  out.total = cpu.run_sink(program.entry, sink, options.max_instructions);
  if (!out.total.halted) {
    throw std::runtime_error("evaluate_program: program did not halt");
  }
  for (unsigned slot = 0; slot < kSignatureSlots; ++slot) {
    out.signatures.push_back(cpu.read_word(program.signature_address(slot)));
  }
  return out;
}

ProgramEvaluation evaluate_program(GradingSession& session,
                                   const TestProgramBuilder& builder,
                                   const TestProgram& program,
                                   const EvalOptions& options) {
  const ProcessorModel& model = session.model();

  // ---- combined run with tracing ------------------------------------------
  auto t_trace = Clock::now();
  TraceCollector trace(model);
  ProgramEvaluation out = trace_program(session, program, options, trace);
  out.stages.trace = seconds_since(t_trace);

  // ---- per-component grading plan -----------------------------------------
  // Serial planning phase: fetch every session artifact up front (references
  // must be taken before fan-out; with the cache off a repeated fetch would
  // replace the object) and decompose each CUT's grading into chunk tasks.
  const ObserveMode mode = observe_mode(options);
  const bool reference = options.sim.engine == fault::Engine::kReference;
  const std::vector<fault::FaultModel> models =
      options.fault_models.empty()
          ? std::vector<fault::FaultModel>{fault::FaultModel::kStuckAt}
          : options.fault_models;
  std::vector<fault::EngineContext> ctxs;
  ctxs.reserve(model.components().size());  // plan tasks keep pointers in
  out.cuts.reserve(model.components().size() * models.size());
  fault::GradingPlan plan;
  for (const ComponentInfo& info : model.components()) {
    auto t_compile = Clock::now();
    const std::uint8_t* reach = nullptr;
    const netlist::CompiledNetlist* compiled = nullptr;
    if (!reference) {
      // Cone first: with the cache off it (re)builds compiled + observe, so
      // the references fetched after it stay the live objects.
      reach = session.cone(info.id, mode).data();
      compiled = &session.compiled(
          info.id, fault::resolve_compile_options(options.sim.netlist_opt));
    }
    const fault::ObserveSet& obs = session.observe(info.id, mode);
    const fault::EngineContext& ctx = ctxs.emplace_back(
        options.sim.engine, info.netlist, obs, compiled, reach,
        options.sim.lanes, options.sim.netlist_opt);
    out.stages.compile += seconds_since(t_compile);

    const auto [patterns, stimulus] = trace.stimulus(info.id);

    for (const fault::FaultModel fm : models) {
      // Transition detection needs launch/capture pattern PAIRS; the clocked
      // stimuli have no pairing semantics, so sequential CUTs get no row.
      if (fm == fault::FaultModel::kTransition && !patterns) continue;

      auto t_collapse = Clock::now();
      const fault::FaultUniverse& universe = session.universe(info.id, fm);
      out.stages.collapse += seconds_since(t_collapse);

      CutCoverage cc;
      cc.id = info.id;
      cc.model = fm;
      cc.collapsed_faults = universe.size();
      cc.uncollapsed_faults = universe.uncollapsed_count();
      cc.stimulus_size = patterns ? patterns->size() : stimulus->size();
      out.cuts.push_back(std::move(cc));
      // detected_flags lives on the heap, so the chunk tasks' flag pointers
      // survive out.cuts growing.
      if (patterns) {
        plan.add_comb(ctx, universe.collapsed(), *patterns,
                      options.sim.lane_parallel, out.cuts.back().coverage);
      } else {
        plan.add_seq(ctx, universe.collapsed(), *stimulus,
                     out.cuts.back().coverage);
      }
    }
  }

  auto t_grade = Clock::now();
  plan.run(session.pool());
  for (CutCoverage& cc : out.cuts) cc.coverage.recount();
  out.stages.grade = seconds_since(t_grade);

  // ---- standalone per-routine statistics ----------------------------------
  auto t_standalone = Clock::now();
  std::vector<TestProgram> standalones;
  standalones.reserve(program.routines.size());
  out.routines.resize(program.routines.size());
  fault::GradingPlan runs;
  for (std::size_t i = 0; i < program.routines.size(); ++i) {
    const Routine& r = program.routines[i];
    standalones.push_back(builder.build_standalone(r));
    const TestProgram& standalone = standalones.back();
    RoutineStats& rs = out.routines[i];
    rs.name = r.name;
    rs.style = r.style;
    rs.size_words = program.sections[i].size_words();
    // Predecode serially (session caches are not for the pool workers);
    // each task shares the immutable micro-op image.
    runs.add_task([&standalone, &rs, &options,
                   decoded = session.decoded(standalone.image)] {
      sim::Cpu solo(options.cpu);
      solo.reset();
      solo.load(standalone.image, decoded);
      rs.exec = solo.run(standalone.entry, options.max_instructions);
    });
  }
  runs.run(session.pool());
  out.stages.standalone = seconds_since(t_standalone);
  return out;
}

ProgramEvaluation evaluate_program(const ProcessorModel& model,
                                   const TestProgramBuilder& builder,
                                   const TestProgram& program,
                                   const EvalOptions& options) {
  GradingSession session(model, {.num_threads = options.sim.num_threads,
                                 .lanes = options.sim.lanes,
                                 .netlist_opt = options.sim.netlist_opt});
  return evaluate_program(session, builder, program, options);
}

}  // namespace sbst::core

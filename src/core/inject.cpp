#include "core/inject.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/evaluate.hpp"
#include "core/program.hpp"
#include "core/session.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/logic3.hpp"
#include "rtlgen/multiplier.hpp"
#include "sim/exec.hpp"

namespace sbst::core {

const char* run_outcome_name(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kOkMatch: return "ok_match";
    case RunOutcome::kDetectedMismatch: return "detected_mismatch";
    case RunOutcome::kDetectedHang: return "detected_hang";
    case RunOutcome::kDetectedTrap: return "detected_trap";
    case RunOutcome::kDetectedWildStore: return "detected_wild_store";
    case RunOutcome::kInfraError: return "infra_error";
  }
  return "unknown";
}

RunOutcome classify_stop(sim::StopReason stop, bool signatures_match) {
  switch (stop) {
    case sim::StopReason::kHalted:
      return signatures_match ? RunOutcome::kOkMatch
                              : RunOutcome::kDetectedMismatch;
    case sim::StopReason::kInstructionBudget:
    case sim::StopReason::kCycleBudget:
    case sim::StopReason::kStoreBudget:
      return RunOutcome::kDetectedHang;
    case sim::StopReason::kWildStore:
      return RunOutcome::kDetectedWildStore;
    case sim::StopReason::kTrap:
      return RunOutcome::kDetectedTrap;
  }
  return RunOutcome::kInfraError;
}

OutcomeHistogram histogram_of(const std::vector<InjectionOutcome>& outcomes) {
  OutcomeHistogram h;
  for (const InjectionOutcome& o : outcomes) h.add(o.outcome);
  return h;
}

sim::RunBudget run_budget_for(const sim::ExecStats& good_stats, double factor,
                              const InjectOptions& options) {
  sim::RunBudget budget;  // defaults = legacy global cap, no cycle/store cap
  if (!(factor > 0.0)) return budget;  // also NaN
  const auto scaled = [factor](std::uint64_t v, std::uint64_t floor_v) {
    // Casting a double at or past 2^64 to uint64_t is undefined: saturate.
    const double s = std::ceil(static_cast<double>(v) * factor);
    const std::uint64_t n =
        s < 0x1p64 ? static_cast<std::uint64_t>(s)
                   : std::numeric_limits<std::uint64_t>::max();
    return std::max(n, floor_v);
  };
  budget.max_instructions =
      scaled(good_stats.instructions, options.min_instructions);
  budget.max_cycles = scaled(good_stats.total_cycles(), options.min_cycles);
  budget.max_stores = scaled(good_stats.stores, options.min_stores);
  return budget;
}

sim::StoreGuard store_guard_for(const TestProgram& program) {
  sim::StoreGuard guard;
  guard.regions.push_back(
      {program.image.base, program.image.end_address()});
  return guard;
}

namespace {

void check_target(CutId target) {
  if (target != CutId::kAlu && target != CutId::kShifter &&
      target != CutId::kMultiplier) {
    throw std::invalid_argument(
        "GateLevelFaultInjector: unsupported component");
  }
}

/// Rejects fault sites that do not exist in the netlist BEFORE they reach
/// Evaluator::inject (whose force arrays are indexed without bounds
/// checks). This is the campaign layer's infra-error seam: a malformed
/// fault descriptor throws here and is degraded to kInfraError instead of
/// silently corrupting the simulation.
void validate_fault_site(const netlist::Netlist& nl,
                         const fault::Fault& fault) {
  if (fault.site.gate >= nl.gates().size()) {
    throw std::out_of_range(
        "GateLevelFaultInjector: fault site gate " +
        std::to_string(fault.site.gate) + " outside netlist (" +
        std::to_string(nl.gates().size()) + " gates)");
  }
  if (!fault.site.is_output() &&
      (fault.site.pin >= 3 ||
       nl.gate(fault.site.gate).in[fault.site.pin] == netlist::kNoNet)) {
    throw std::out_of_range("GateLevelFaultInjector: fault site pin " +
                            std::to_string(fault.site.pin) +
                            " of gate " + std::to_string(fault.site.gate) +
                            " is not connected");
  }
}

}  // namespace

GoodPathTable::GoodPathTable(const netlist::Netlist& nl, CutId target,
                             fault::PatternSet tuples)
    : tuples_(std::move(tuples)) {
  check_target(target);
  const bool has_op = target != CutId::kMultiplier;
  const char* b_port = target == CutId::kShifter ? "shamt" : "b";
  const netlist::Bus& out = nl.output_port(
      target == CutId::kMultiplier ? "product" : "result");
  const std::size_t n = tuples_.size();
  tuple_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tuple_.push_back(
        {has_op ? static_cast<std::uint32_t>(tuples_.value_of(i, "op")) : 0,
         static_cast<std::uint32_t>(tuples_.value_of(i, "a")),
         static_cast<std::uint32_t>(tuples_.value_of(i, b_port))});
  }
  netlist::Evaluator ev(nl);
  const std::vector<netlist::NetId>& inputs = nl.inputs();
  good_.reserve(n);
  net_count_ = nl.size();
  nets_.reserve(tuples_.block_count() * net_count_);
  for (std::size_t block = 0; block < tuples_.block_count(); ++block) {
    const std::vector<std::uint64_t>& words = tuples_.block(block);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      ev.set_input_word(inputs[k], words[k]);
    }
    ev.eval();
    const std::size_t lanes = std::min<std::size_t>(64, n - block * 64);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      good_.push_back(ev.bus_value(out, static_cast<unsigned>(lane)));
    }
    for (netlist::NetId net = 0; net < nl.size(); ++net) {
      nets_.push_back(ev.value(net));
    }
  }
  if (has_op) {
    // Three-valued pass per op value, the op port fixed and every other
    // input X. Net ids are a topological order: Netlist::add rejects a
    // gate input that is not yet defined.
    const netlist::Bus& op = nl.input_port("op");
    if (op.size() > 5) {
      throw std::invalid_argument("GoodPathTable: op port wider than 5 bits");
    }
    const std::uint32_t op_count = std::uint32_t{1} << op.size();
    all_ops_ = static_cast<std::uint32_t>((std::uint64_t{1} << op_count) - 1);
    constant_ops_.assign(2 * nl.size(), 0);
    std::vector<netlist::Logic3> v(nl.size(), netlist::kLogicX);
    for (std::uint32_t value = 0; value < op_count; ++value) {
      for (std::size_t k = 0; k < op.size(); ++k) {
        v[op[k]] = (value >> k) & 1u ? netlist::kLogic1 : netlist::kLogic0;
      }
      for (netlist::NetId net = 0; net < nl.size(); ++net) {
        const netlist::Gate& g = nl.gate(net);
        if (g.kind != netlist::GateKind::kInput) {
          v[net] = netlist::eval_gate3(
              g.kind, [&](unsigned p) { return v[g.in[p]]; });
        }
        if (v[net] != netlist::kLogicX) {
          constant_ops_[2 * net + v[net]] |= std::uint32_t{1} << value;
        }
      }
    }
  }
  std::size_t capacity = 2;
  while (capacity < 2 * n) capacity *= 2;
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const Tuple& t = tuple_[i];
    std::size_t s = hash(t.op, t.a, t.b) & mask_;
    while (slots_[s] != 0) s = (s + 1) & mask_;
    slots_[s] = static_cast<std::uint32_t>(i + 1);
  }
}

GoodPathTable GoodPathTable::trace(const ProcessorModel& model,
                                   const TestProgram& program,
                                   const sim::CpuConfig& config,
                                   CutId target) {
  TraceCollector trace(model);
  // Only the three injectable streams are wanted; the register-file and
  // pipeline streams are the collector's only large ones.
  trace.set_regfile_cycle_cap(0);
  trace.set_pipeline_cycle_cap(0);
  sim::Cpu cpu(config);
  cpu.reset();
  cpu.load(program.image);
  sim::TraceSink<TraceCollector> sink{&trace};
  if (!cpu.run_sink(program.entry, sink).halted) {
    throw std::runtime_error("GoodPathTable: good run did not halt");
  }
  const netlist::Netlist& nl = model.component(target).netlist;
  switch (target) {
    case CutId::kAlu: return GoodPathTable(nl, target, trace.alu_patterns());
    case CutId::kShifter:
      return GoodPathTable(nl, target, trace.shifter_patterns());
    default: return GoodPathTable(nl, target, trace.multiplier_patterns());
  }
}

void GateLevelFaultInjector::init(const fault::Fault& fault) {
  check_target(target_);
  validate_fault_site(*nl_, fault);
  fault_ = fault;
  stream_key_ = fault::fault_stream_key(fault);
  port_a_ = &nl_->input_port("a");
  switch (target_) {
    case CutId::kAlu:
      port_b_ = &nl_->input_port("b");
      port_op_ = &nl_->input_port("op");
      port_out_ = &nl_->output_port("result");
      break;
    case CutId::kShifter:
      port_b_ = &nl_->input_port("shamt");
      port_op_ = &nl_->input_port("op");
      port_out_ = &nl_->output_port("result");
      break;
    default:
      port_b_ = &nl_->input_port("b");
      port_out_ = &nl_->output_port("product");
      break;
  }
  site_net_ = fault.site.is_output()
                  ? fault.site.gate
                  : nl_->gate(fault.site.gate).in[fault.site.pin];
  if (fault.model == fault::FaultModel::kTransition) line_memo_.emplace();
}

std::uint32_t GateLevelFaultInjector::screen_ops() const {
  const GoodPathTable& table = *good_path_;
  const std::uint32_t all = table.all_ops();
  if (all == 0) return 0;
  const netlist::Netlist& nl = *nl_;
  // live[n]: the op values under which net n is in the fault's forward
  // closure. A net outside it equals its fault-free value for every operand
  // pair with that op.
  std::vector<std::uint32_t> live(nl.size(), 0);
  // The op values under which pin p of gate g passes no fault effect:
  // another pin, itself outside the closure, holds the gate's controlling
  // constant (for a mux, a select that picks the other data pin).
  const auto stopped = [&](const netlist::Gate& g, unsigned p) {
    const auto holds = [&](unsigned q, bool value) {
      return table.constant_ops(g.in[q], value) & ~live[g.in[q]];
    };
    switch (g.kind) {
      case netlist::GateKind::kAnd:
      case netlist::GateKind::kNand: return holds(1 - p, false);
      case netlist::GateKind::kOr:
      case netlist::GateKind::kNor: return holds(1 - p, true);
      case netlist::GateKind::kMux2:
        return p == 1 ? holds(0, true) : p == 2 ? holds(0, false) : 0u;
      default: return 0u;
    }
  };
  // Net ids are a topological order (Netlist::add rejects forward inputs),
  // so the closure grows in one pass from the faulted gate, which a pin
  // fault enters only through its own pin.
  const netlist::NetId first = fault_.site.gate;
  live[first] = fault_.site.is_output()
                    ? all
                    : all & ~stopped(nl.gate(first), fault_.site.pin);
  for (netlist::NetId id = first + 1; id < nl.size(); ++id) {
    const netlist::Gate& g = nl.gate(id);
    std::uint32_t reach = 0;
    for (unsigned p = 0; p < netlist::fanin_count(g.kind); ++p) {
      if (const std::uint32_t in = live[g.in[p]]) reach |= in & ~stopped(g, p);
    }
    live[id] = reach;
  }
  std::uint32_t observed = 0;
  for (const netlist::NetId n : *port_out_) observed |= live[n];
  // Never excited, or never observed on the result bus.
  return all &
         (table.constant_ops(site_net_, fault_.stuck_value) | ~observed);
}

GateLevelFaultInjector::SiteCone::SiteCone(const netlist::Netlist& nl,
                                           netlist::NetId site_net)
    : eval(nl) {
  // Iterative DFS over the fanins; a gate is emitted after all of its
  // fanins (post-order), which is a topological order of the cone.
  std::vector<std::uint8_t> seen(nl.size(), 0);
  std::vector<std::pair<netlist::NetId, unsigned>> stack{{site_net, 0u}};
  seen[site_net] = 1;
  while (!stack.empty()) {
    const netlist::NetId g = stack.back().first;
    const netlist::Gate& gate = nl.gate(g);
    const unsigned pin = stack.back().second++;
    if (pin < netlist::fanin_count(gate.kind)) {
      const netlist::NetId in = gate.in[pin];
      if (in != netlist::kNoNet && !seen[in]) {
        seen[in] = 1;
        stack.emplace_back(in, 0u);
      }
    } else {
      gates.push_back(g);
      stack.pop_back();
    }
  }
}

GateLevelFaultInjector::GateLevelFaultInjector(const ProcessorModel& model,
                                               CutId target,
                                               const fault::Fault& fault)
    : target_(target), nl_(&model.component(target).netlist) {
  init(fault);
  ref_eval_ = std::make_unique<netlist::Evaluator>(*nl_);
}

GateLevelFaultInjector::GateLevelFaultInjector(
    const netlist::Netlist& nl, const netlist::CompiledNetlist& compiled,
    const GoodPathTable& good_path, CutId target, const fault::Fault& fault)
    : target_(target),
      nl_(&nl),
      good_path_(&good_path),
      diff_(good_path.size()),
      swept_(good_path.tuples().block_count()) {
  init(fault);
  blocked_ = screen_ops();
  comp_eval_ = std::make_unique<netlist::CompiledEvaluator>(compiled);
}

template <class Eval>
void GateLevelFaultInjector::drive(Eval& ev, std::uint32_t op,
                                   std::uint32_t a, std::uint32_t b) const {
  ev.set_bus(*port_a_, a);
  ev.set_bus(*port_b_, b);
  if (port_op_) ev.set_bus(*port_op_, op);
}

bool GateLevelFaultInjector::site_value(std::uint32_t op, std::uint32_t a,
                                        std::uint32_t b) {
  if (line_memo_) {
    if (const std::uint64_t* hit = line_memo_->find(op, a, b)) return *hit;
  }
  if (!site_) site_ = std::make_unique<SiteCone>(*nl_, site_net_);
  drive(site_->eval, op, a, b);
  site_->eval.sweep(site_->gates);
  const bool v = site_->eval.value(site_net_) & 1u;
  if (line_memo_) line_memo_->store(op, a, b, v);
  return v;
}

bool GateLevelFaultInjector::active(std::uint32_t op, std::uint32_t a,
                                    std::uint32_t b) {
  switch (fault_.model) {
    case fault::FaultModel::kStuckAt:
      return true;
    case fault::FaultModel::kTransition: {
      // Launch/capture at operation granularity: the slow transition only
      // corrupts this operation if the fault-free line sat at the slow value
      // sv on the previous operation and should be !sv now.
      const bool lv = site_value(op, a, b);
      const bool on = prev_line_sv_ && lv != fault_.stuck_value;
      prev_line_sv_ = lv == fault_.stuck_value;
      return on;
    }
    case fault::FaultModel::kTransientSEU:
    case fault::FaultModel::kIntermittent:
      return fault::fault_active(stream_key_, fault_.model, op_index_++);
  }
  return true;
}

template <class Eval>
void GateLevelFaultInjector::arm(Eval& ev) {
  // The evaluator only ever runs with the force armed, so each evaluation
  // computes the faulty function of whatever it is driven with.
  if (!armed_) ev.inject_broadcast(fault_.site, fault_.stuck_value);
  armed_ = true;
}

std::uint64_t GateLevelFaultInjector::good_path_result(std::size_t i) {
  const std::size_t block = i / 64;
  if (!swept_[block]) {
    const std::size_t base = block * 64;
    const std::size_t lanes = std::min<std::size_t>(64, diff_.size() - base);
    const std::uint64_t live =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    // A block in which no tuple excites the fault keeps diff 0.
    if (excited(good_path_->net_word(block, site_net_)) & live) {
      // One forced sweep answers the block's 64 tuples: the CUT is
      // combinational and the force sits in every lane, so lane k computes
      // exactly what a single-tuple evaluation of tuple k would.
      comp_eval_->request_full_eval();
      arm(*comp_eval_);
      const std::vector<std::uint64_t>& words =
          good_path_->tuples().block(block);
      const std::vector<netlist::NetId>& inputs = nl_->inputs();
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        comp_eval_->set_input_word(inputs[k], words[k]);
      }
      comp_eval_->eval();
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        diff_[base + lane] =
            comp_eval_->bus_value(*port_out_, static_cast<unsigned>(lane)) ^
            good_path_->good(base + lane);
      }
    }
    swept_[block] = 1;
  }
  return good_path_->good(i) ^ diff_[i];
}

std::uint64_t GateLevelFaultInjector::faulty_result(std::uint32_t op,
                                                    std::uint32_t a,
                                                    std::uint32_t b,
                                                    std::uint64_t good) {
  if (good_path_) {
    const std::size_t i = good_path_->find(op, a, b);
    if (i != GoodPathTable::kNotFound) return good_path_result(i);
  }
  if (const std::uint64_t* hit = results_.find(op, a, b)) return *hit;
  ++off_path_tuples_;
  std::uint64_t r = good;
  const auto evaluate = [&](auto& ev) {
    // The whole stimulus changes between two evaluations: sweep, and ask
    // for it before driving the inputs so they queue no events.
    ev.request_full_eval();
    arm(ev);
    drive(ev, op, a, b);
    ev.eval();
    ++off_path_evals_;
    return ev.bus_value(*port_out_);
  };
  // The reference form sweeps every active tuple: it is the oracle of the
  // excitation screen.
  if (!comp_eval_) {
    r = evaluate(*ref_eval_);
  } else if (excited(site_value(op, a, b)) & 1u) {
    r = evaluate(*comp_eval_);
  }
  results_.store(op, a, b, r);
  return r;
}

std::uint64_t GateLevelFaultInjector::resolve(std::uint32_t op,
                                              std::uint32_t a,
                                              std::uint32_t b,
                                              std::uint64_t good) {
  if (!active(op, a, b)) return good;
  if ((blocked_ >> op) & 1u) {
    ++op_blocked_;
    return good;
  }
  const std::uint64_t r = faulty_result(op, a, b, good);
  if (r != good) ++corrupted_;
  return r;
}

std::optional<std::uint32_t> GateLevelFaultInjector::alu_result(
    rtlgen::AluOp op, std::uint32_t a, std::uint32_t b) {
  if (target_ != CutId::kAlu) return std::nullopt;
  return static_cast<std::uint32_t>(resolve(static_cast<std::uint32_t>(op),
                                            a, b, rtlgen::alu_ref(op, a, b)));
}

std::optional<std::uint32_t> GateLevelFaultInjector::shift_result(
    rtlgen::ShiftOp op, std::uint32_t value, std::uint32_t shamt) {
  if (target_ != CutId::kShifter) return std::nullopt;
  return static_cast<std::uint32_t>(
      resolve(static_cast<std::uint32_t>(op), value, shamt,
              rtlgen::shifter_ref(op, value, shamt)));
}

std::optional<std::uint64_t> GateLevelFaultInjector::mult_result(
    std::uint32_t a, std::uint32_t b) {
  if (target_ != CutId::kMultiplier) return std::nullopt;
  return resolve(0, a, b, rtlgen::multiplier_ref(a, b));
}

namespace {

/// One guarded faulty run against precomputed good signatures. The good
/// machine is NOT re-executed here — callers hoist it once per
/// (program, config) and derive the watchdog budget from its stats.
InjectionOutcome faulty_outcome(
    const TestProgram& program,
    const std::vector<std::uint32_t>& good_signatures,
    GateLevelFaultInjector& injector, const sim::CpuConfig& config,
    std::shared_ptr<const isa::DecodedProgram> decoded,
    const sim::RunBudget& budget, const sim::StoreGuard* guard) {
  InjectionOutcome out;
  out.good_signatures = good_signatures;

  sim::Cpu bad(config);
  bad.reset();
  bad.load(program.image, std::move(decoded));
  sim::InjectSink<GateLevelFaultInjector> sink{&injector};
  // A fault can corrupt an address computation (trap, wild store) or keep
  // the program from ever reaching `break` (hang). The guarded run
  // classifies each ending; the signature slots keep the legacy inverted
  // convention for non-clean endings so `detected` and the signature
  // vectors stay comparable with pre-taxonomy results.
  const sim::GuardedResult run =
      bad.run_guarded(program.entry, sink, budget, guard);
  out.faulty_stats = run.stats;
  out.stop = run.reason;
  const bool clean = run.reason == sim::StopReason::kHalted;
  for (unsigned slot = 0; slot < kSignatureSlots; ++slot) {
    out.faulty_signatures.push_back(
        clean ? bad.read_word(program.signature_address(slot))
              : ~good_signatures[slot]);
  }
  out.corrupted_results = injector.corrupted_results();
  out.outcome = classify_stop(run.reason,
                              out.good_signatures == out.faulty_signatures);
  out.detected = outcome_detected(out.outcome);
  return out;
}

/// Session-less good run: executes the fault-free machine and unloads its
/// signature words and stats (the stats seed the watchdog budget, exactly
/// like the session's cached GoodRun).
GoodRun good_run_of(const TestProgram& program, const sim::CpuConfig& config,
                    const std::shared_ptr<const isa::DecodedProgram>& decoded) {
  sim::Cpu good(config);
  good.reset();
  good.load(program.image, decoded);
  GoodRun run;
  run.stats = good.run(program.entry);
  if (!run.stats.halted) {
    throw std::runtime_error("run_with_injection: good run did not halt");
  }
  run.signatures.reserve(kSignatureSlots);
  for (unsigned slot = 0; slot < kSignatureSlots; ++slot) {
    run.signatures.push_back(good.read_word(program.signature_address(slot)));
  }
  return run;
}

double resolved_factor(const InjectOptions& inject,
                       const GradingSession* session) {
  if (inject.budget_factor) return *inject.budget_factor;
  return session ? session->options().budget_factor : kDefaultBudgetFactor;
}

/// The campaign-side infra_error placeholder for fault whose task threw.
InjectionOutcome infra_outcome(const std::vector<std::uint32_t>& good_sigs) {
  InjectionOutcome out;
  out.outcome = RunOutcome::kInfraError;
  out.detected = false;
  out.good_signatures = good_sigs;
  return out;
}

}  // namespace

InjectionOutcome run_with_injection(const ProcessorModel& model,
                                    const TestProgram& program,
                                    CutId target, const fault::Fault& fault,
                                    const sim::CpuConfig& config,
                                    const InjectOptions& inject) {
  const auto decoded =
      std::make_shared<const isa::DecodedProgram>(program.image);
  const GoodRun good = good_run_of(program, config, decoded);
  const sim::RunBudget budget =
      run_budget_for(good.stats, resolved_factor(inject, nullptr), inject);
  const sim::StoreGuard guard = store_guard_for(program);
  GateLevelFaultInjector injector(model, target, fault);
  return faulty_outcome(program, good.signatures, injector, config, decoded,
                        budget, inject.store_guard ? &guard : nullptr);
}

InjectionOutcome run_with_injection(GradingSession& session,
                                    const TestProgram& program,
                                    CutId target, const fault::Fault& fault,
                                    const sim::CpuConfig& config,
                                    const InjectOptions& inject) {
  // Copy before further session calls: with the cache off a later good_run
  // request for the same program replaces the slot.
  const GoodRun good = session.good_run(program, config);
  if (!good.stats.halted) {
    throw std::runtime_error("run_with_injection: good run did not halt");
  }
  const sim::RunBudget budget =
      run_budget_for(good.stats, resolved_factor(inject, &session), inject);
  const sim::StoreGuard guard = store_guard_for(program);
  const auto good_path = session.good_path(program, config, target);
  auto decoded = session.decoded(program.image);
  const netlist::Netlist& nl = session.model().component(target).netlist;
  GateLevelFaultInjector injector(nl, session.compiled(target), *good_path,
                                  target, fault);
  return faulty_outcome(program, good.signatures, injector, config,
                        std::move(decoded), budget,
                        inject.store_guard ? &guard : nullptr);
}

std::vector<InjectionOutcome> run_injection_campaign(
    GradingSession& session, const TestProgram& program, CutId target,
    const std::vector<fault::Fault>& faults, const sim::CpuConfig& config,
    const InjectOptions& inject) {
  // Serial prefetch: one good run, one good-path table, one predecoded
  // image, one compiled netlist — shared read-only by every per-fault task
  // (workers never touch the session caches, so cache-off mode stays safe
  // under parallelism).
  const GoodRun good = session.good_run(program, config);
  if (!good.stats.halted) {
    throw std::runtime_error("run_with_injection: good run did not halt");
  }
  const sim::RunBudget budget =
      run_budget_for(good.stats, resolved_factor(inject, &session), inject);
  const sim::StoreGuard guard = store_guard_for(program);
  const sim::StoreGuard* guard_p = inject.store_guard ? &guard : nullptr;
  const auto good_path = session.good_path(program, config, target);
  const auto decoded = session.decoded(program.image);
  const netlist::Netlist& nl = session.model().component(target).netlist;
  const netlist::CompiledNetlist& compiled = session.compiled(target);

  std::vector<InjectionOutcome> out(faults.size());
  const auto run_one = [&](std::size_t i) {
    GateLevelFaultInjector injector(nl, compiled, *good_path, target,
                                    faults[i]);
    out[i] = faulty_outcome(program, good.signatures, injector, config,
                            decoded, budget, guard_p);
  };
  fault::GradingPlan plan;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    plan.add_task([&run_one, i] { run_one(i); });
  }
  // Fault-tolerant execution: a throwing task is contained by the pool,
  // retried serially here (the failure might be resource-transient), and
  // only then pinned to kInfraError — the campaign always returns a verdict
  // for every fault.
  const std::vector<fault::ThreadPool::TaskFailure> failures =
      plan.run_capture(session.pool());
  for (const fault::ThreadPool::TaskFailure& f : failures) {
    out[f.task] = infra_outcome(good.signatures);
    for (unsigned attempt = 0; attempt < kInfraRetries; ++attempt) {
      try {
        run_one(f.task);
        break;
      } catch (...) {
        out[f.task] = infra_outcome(good.signatures);
      }
    }
  }
  return out;
}

std::vector<InjectionOutcome> run_injection_campaign(
    const ProcessorModel& model, const TestProgram& program, CutId target,
    const std::vector<fault::Fault>& faults, const sim::CpuConfig& config,
    const InjectOptions& inject) {
  const auto decoded =
      std::make_shared<const isa::DecodedProgram>(program.image);
  const GoodRun good = good_run_of(program, config, decoded);
  const sim::RunBudget budget =
      run_budget_for(good.stats, resolved_factor(inject, nullptr), inject);
  const sim::StoreGuard guard = store_guard_for(program);
  const sim::StoreGuard* guard_p = inject.store_guard ? &guard : nullptr;
  std::vector<InjectionOutcome> out;
  out.reserve(faults.size());
  for (const fault::Fault& fault : faults) {
    const auto run_one = [&]() {
      GateLevelFaultInjector injector(model, target, fault);
      return faulty_outcome(program, good.signatures, injector, config,
                            decoded, budget, guard_p);
    };
    InjectionOutcome one = infra_outcome(good.signatures);
    for (unsigned attempt = 0; attempt <= kInfraRetries; ++attempt) {
      try {
        one = run_one();
        break;
      } catch (...) {
        one = infra_outcome(good.signatures);
      }
    }
    out.push_back(std::move(one));
  }
  return out;
}

}  // namespace sbst::core

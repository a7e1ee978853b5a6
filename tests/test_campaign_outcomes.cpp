// Hardened campaign runtime: RunOutcome taxonomy, watchdog budgets derived
// from the good run, the software-MPU store guard, fault-tolerant campaign
// execution, and the injector's per-operation rule (activation per fault
// model, the op-blocking screen, the good-path table, the off-path memo and
// the excitation screen) against a per-operation reference oracle, the
// injector's reference form and hand-built CUTs (tests for
// core/inject.{hpp,cpp}).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/evaluate.hpp"
#include "core/inject.hpp"
#include "core/program.hpp"
#include "core/session.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "netlist/compiled.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/multiplier.hpp"
#include "rtlgen/shifter.hpp"
#include "sim/cpu.hpp"
#include "sim/exec.hpp"

namespace sbst::core {
namespace {

struct CampaignFixture {
  ProcessorModel model;
  TestProgramBuilder builder;
  TestProgram program;
  CampaignFixture() {
    builder.add_default_routines(model);
    program = builder.build();
  }
};

CampaignFixture& fixture() {
  static CampaignFixture f;
  return f;
}

std::vector<fault::Fault> first_faults(const ProcessorModel& model, CutId cut,
                                       std::size_t n) {
  fault::FaultUniverse u(model.component(cut).netlist);
  std::vector<fault::Fault> faults = u.collapsed();
  if (n != 0 && faults.size() > n) faults.resize(n);
  return faults;
}

// ---- budget derivation -----------------------------------------------------

TEST(RunBudget, ScalesGoodRunResources) {
  sim::ExecStats good;
  good.instructions = 100000;
  good.cpu_cycles = 150000;
  good.pipeline_stall_cycles = 20000;
  good.memory_stall_cycles = 10000;
  good.stores = 5000;
  const sim::RunBudget b = run_budget_for(good, 8.0);
  EXPECT_EQ(b.max_instructions, 800000u);
  EXPECT_EQ(b.max_cycles, 8 * good.total_cycles());
  EXPECT_EQ(b.max_stores, 40000u);
}

TEST(RunBudget, FloorsProtectShortPrograms) {
  sim::ExecStats tiny;
  tiny.instructions = 10;
  tiny.cpu_cycles = 12;
  tiny.stores = 1;
  InjectOptions options;
  const sim::RunBudget b = run_budget_for(tiny, 2.0, options);
  EXPECT_EQ(b.max_instructions, options.min_instructions);
  EXPECT_EQ(b.max_cycles, options.min_cycles);
  EXPECT_EQ(b.max_stores, options.min_stores);
}

TEST(RunBudget, NonPositiveFactorFallsBackToLegacyCap) {
  sim::ExecStats good;
  good.instructions = 123456;
  good.stores = 789;
  for (double factor : {0.0, -1.0}) {
    const sim::RunBudget b = run_budget_for(good, factor);
    EXPECT_EQ(b.max_instructions, std::uint64_t{1} << 24);
    EXPECT_EQ(b.max_cycles, 0u);  // 0 = uncapped
    EXPECT_EQ(b.max_stores, 0u);
  }
}

TEST(RunBudget, NanFallsBackToLegacyCapAndHugeFactorsSaturate) {
  sim::ExecStats good;
  good.instructions = 123456;
  good.cpu_cycles = 234567;
  good.stores = 789;
  const sim::RunBudget legacy = run_budget_for(good, std::nan(""));
  EXPECT_EQ(legacy.max_instructions, std::uint64_t{1} << 24);
  EXPECT_EQ(legacy.max_cycles, 0u);
  EXPECT_EQ(legacy.max_stores, 0u);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (double factor : {1e30, std::numeric_limits<double>::infinity()}) {
    const sim::RunBudget b = run_budget_for(good, factor);
    EXPECT_EQ(b.max_instructions, kMax) << factor;
    EXPECT_EQ(b.max_cycles, kMax) << factor;
    EXPECT_EQ(b.max_stores, kMax) << factor;
  }
}

// ---- outcome taxonomy ------------------------------------------------------

TEST(OutcomeHistogram, CountsAndDetectionSplit) {
  OutcomeHistogram h;
  h.add(RunOutcome::kOkMatch);
  h.add(RunOutcome::kDetectedMismatch);
  h.add(RunOutcome::kDetectedMismatch);
  h.add(RunOutcome::kDetectedHang);
  h.add(RunOutcome::kDetectedTrap);
  h.add(RunOutcome::kDetectedWildStore);
  h.add(RunOutcome::kInfraError);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.count(RunOutcome::kDetectedMismatch), 2u);
  EXPECT_EQ(h.detected_by_signature(), 2u);
  EXPECT_EQ(h.detected_by_symptom(), 3u);
  EXPECT_EQ(h.detected(), 5u);

  OutcomeHistogram same = h;
  EXPECT_EQ(same, h);
  same.add(RunOutcome::kOkMatch);
  EXPECT_NE(same, h);
}

TEST(RunOutcomeNames, DistinctAndDetectionPredicateMatchesTaxonomy) {
  const RunOutcome all[] = {
      RunOutcome::kOkMatch,       RunOutcome::kDetectedMismatch,
      RunOutcome::kDetectedHang,  RunOutcome::kDetectedTrap,
      RunOutcome::kDetectedWildStore, RunOutcome::kInfraError};
  for (RunOutcome a : all) {
    ASSERT_NE(run_outcome_name(a), nullptr);
    for (RunOutcome b : all) {
      if (a != b) {
        EXPECT_STRNE(run_outcome_name(a), run_outcome_name(b));
      }
    }
  }
  EXPECT_FALSE(outcome_detected(RunOutcome::kOkMatch));
  EXPECT_FALSE(outcome_detected(RunOutcome::kInfraError));
  EXPECT_TRUE(outcome_detected(RunOutcome::kDetectedMismatch));
  EXPECT_TRUE(outcome_detected(RunOutcome::kDetectedHang));
  EXPECT_TRUE(outcome_detected(RunOutcome::kDetectedTrap));
  EXPECT_TRUE(outcome_detected(RunOutcome::kDetectedWildStore));
}

// ---- store guard -----------------------------------------------------------

TEST(StoreGuard, CoversExactlyTheImageSpan) {
  const TestProgram& p = fixture().program;
  const sim::StoreGuard guard = store_guard_for(p);
  ASSERT_EQ(guard.regions.size(), 1u);
  EXPECT_TRUE(guard.allows(p.image.base));
  EXPECT_TRUE(guard.allows(p.image.end_address() - 4));
  EXPECT_TRUE(guard.allows(p.signature_address(0)));
  EXPECT_TRUE(guard.allows(p.signature_address(7)));
  EXPECT_FALSE(guard.allows(p.image.end_address()));
  EXPECT_FALSE(guard.allows(p.image.end_address() + 0x1000));
}

TEST(StoreGuard, GoodMachineRunsToCompletionUnderBudgetAndGuard) {
  const TestProgram& p = fixture().program;
  sim::Cpu reference;
  reference.reset();
  reference.load(p.image);
  const sim::ExecStats good = reference.run(p.entry);
  ASSERT_TRUE(good.halted);

  // The fault-free machine must never trip the watchdog or the MPU it
  // defines for faulty runs — otherwise every campaign would misclassify.
  const sim::RunBudget budget = run_budget_for(good, kDefaultBudgetFactor);
  const sim::StoreGuard guard = store_guard_for(p);
  sim::Cpu guarded;
  guarded.reset();
  guarded.load(p.image);
  sim::NoSink sink;
  const sim::GuardedResult r = guarded.run_guarded(p.entry, sink, budget,
                                                   &guard);
  EXPECT_EQ(r.reason, sim::StopReason::kHalted);
  EXPECT_TRUE(r.stats.halted);
  EXPECT_EQ(r.stats.instructions, good.instructions);
}

// ---- classification of real faulty runs ------------------------------------

TEST(CampaignOutcomes, ShifterFaultsHangAndStayUnderLegacyCap) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 2});
  const std::vector<fault::Fault> faults =
      first_faults(f.model, CutId::kShifter, 6);
  const std::vector<InjectionOutcome> out =
      run_injection_campaign(session, f.program, CutId::kShifter, faults);
  ASSERT_EQ(out.size(), faults.size());

  std::size_t hangs = 0;
  for (const InjectionOutcome& o : out) {
    // The watchdog budget (8 x good run) must fire far below the legacy
    // global cap — that is the whole point of deriving it per run.
    EXPECT_LT(o.faulty_stats.instructions, std::uint64_t{1} << 24);
    if (o.outcome == RunOutcome::kDetectedHang) {
      ++hangs;
      EXPECT_TRUE(o.detected);
      EXPECT_TRUE(o.stop == sim::StopReason::kInstructionBudget ||
                  o.stop == sim::StopReason::kCycleBudget ||
                  o.stop == sim::StopReason::kStoreBudget)
          << stop_reason_name(o.stop);
    }
  }
  EXPECT_GE(hangs, 1u) << "no shifter fault classified as a hang";
  const OutcomeHistogram h = histogram_of(out);
  EXPECT_EQ(h.total(), out.size());
  EXPECT_EQ(h.count(RunOutcome::kDetectedHang), hangs);
}

// A crafted routine whose first faulty-visible value is a memory address:
// a stuck-at-1 on ALU result bit 31 corrupts the `la` constant, so the very
// next memory access goes to 0x8xxxxxxx instead of the signature area.
Routine crafted_address_routine(const char* name, const char* body) {
  Routine r;
  r.name = name;
  r.target = CutId::kAlu;
  r.strategy = TpgStrategy::kNone;
  r.style = "crafted";
  r.assembly = body;
  r.sig_slot = 0;
  return r;
}

fault::Fault alu_result_bit31_sa1(const ProcessorModel& model) {
  const netlist::Bus& result =
      model.component(CutId::kAlu).netlist.output_port("result");
  return fault::Fault{netlist::Site{result[31]}, true};
}

// Runs the crafted fault through session campaigns across the full
// determinism matrix and checks it classifies the same way every time.
void expect_outcome_across_matrix(const ProcessorModel& model,
                                  const TestProgram& p,
                                  const fault::Fault& fa,
                                  RunOutcome expected) {
  for (unsigned threads : {1u, 2u, 8u}) {
    for (bool cache : {true, false}) {
      GradingSession session(model, {.num_threads = threads, .cache = cache});
      const std::vector<InjectionOutcome> out =
          run_injection_campaign(session, p, CutId::kAlu, {fa});
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].outcome, expected)
          << "threads " << threads << " cache " << cache;
    }
  }
}

TEST(CampaignOutcomes, CraftedWildStoreIsCaughtByStoreGuard) {
  CampaignFixture& f = fixture();
  const TestProgram p = f.builder.build_standalone(crafted_address_routine(
      "wild", "la   $s6, signatures\n"
              "sw   $s2, 0($s6)\n"));
  const InjectionOutcome o = run_with_injection(
      f.model, p, CutId::kAlu, alu_result_bit31_sa1(f.model));
  EXPECT_EQ(o.outcome, RunOutcome::kDetectedWildStore);
  EXPECT_EQ(o.stop, sim::StopReason::kWildStore);
  EXPECT_TRUE(o.detected);

  // With the software MPU disabled, the same wild address leaves the
  // simulated memory entirely and surfaces as a trap instead — the legacy
  // pre-guard behaviour.
  InjectOptions no_guard;
  no_guard.store_guard = false;
  const InjectionOutcome legacy = run_with_injection(
      f.model, p, CutId::kAlu, alu_result_bit31_sa1(f.model), {}, no_guard);
  EXPECT_EQ(legacy.outcome, RunOutcome::kDetectedTrap);

  expect_outcome_across_matrix(f.model, p, alu_result_bit31_sa1(f.model),
                               RunOutcome::kDetectedWildStore);
}

TEST(CampaignOutcomes, CraftedWildLoadClassifiesAsTrap) {
  CampaignFixture& f = fixture();
  // Loads are not store-guarded; a corrupted load address beyond simulated
  // memory raises a bus error, which classifies as a trap.
  const TestProgram p = f.builder.build_standalone(crafted_address_routine(
      "trap", "la   $s6, signatures\n"
              "lw   $t0, 0($s6)\n"
              "sw   $t0, 0($s6)\n"));
  const InjectionOutcome o = run_with_injection(
      f.model, p, CutId::kAlu, alu_result_bit31_sa1(f.model));
  EXPECT_EQ(o.outcome, RunOutcome::kDetectedTrap);
  EXPECT_EQ(o.stop, sim::StopReason::kTrap);
  EXPECT_TRUE(o.detected);

  expect_outcome_across_matrix(f.model, p, alu_result_bit31_sa1(f.model),
                               RunOutcome::kDetectedTrap);
}

TEST(CampaignOutcomes, DeterministicAcrossThreadsAndCache) {
  CampaignFixture& f = fixture();
  const std::vector<fault::Fault> faults =
      first_faults(f.model, CutId::kAlu, 4);
  // Session-less serial campaign is the reference: same budgets, same
  // classification, bitwise-identical signatures.
  const std::vector<InjectionOutcome> reference =
      run_injection_campaign(f.model, f.program, CutId::kAlu, faults);
  ASSERT_EQ(reference.size(), faults.size());

  for (unsigned threads : {1u, 2u, 8u}) {
    for (bool cache : {true, false}) {
      GradingSession session(f.model,
                             {.num_threads = threads, .cache = cache});
      const std::vector<InjectionOutcome> out =
          run_injection_campaign(session, f.program, CutId::kAlu, faults);
      ASSERT_EQ(out.size(), reference.size());
      for (std::size_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(out[k].outcome, reference[k].outcome)
            << "threads " << threads << " cache " << cache << " fault " << k;
        EXPECT_EQ(out[k].detected, reference[k].detected);
        EXPECT_EQ(out[k].stop, reference[k].stop);
        EXPECT_EQ(out[k].faulty_stats.instructions,
                  reference[k].faulty_stats.instructions);
        EXPECT_EQ(out[k].good_signatures, reference[k].good_signatures);
        EXPECT_EQ(out[k].faulty_signatures, reference[k].faulty_signatures);
      }
      EXPECT_EQ(histogram_of(out), histogram_of(reference));
    }
  }
}

// ---- infra-error containment ------------------------------------------------

constexpr fault::FaultModel kAllModels[] = {
    fault::FaultModel::kStuckAt, fault::FaultModel::kTransition,
    fault::FaultModel::kTransientSEU, fault::FaultModel::kIntermittent};

// Pin 2 of ALU gate 67, a two-input gate, under every fault model: a site
// inside the pin range that no net drives.
std::vector<fault::Fault> unconnected_pin_faults(const ProcessorModel& model) {
  const netlist::Netlist& nl = model.component(CutId::kAlu).netlist;
  EXPECT_EQ(nl.gate(67).in[2], netlist::kNoNet);
  std::vector<fault::Fault> out;
  for (const fault::FaultModel fm : kAllModels) {
    out.push_back(fault::Fault{netlist::Site{67, 2}, true, fm});
  }
  return out;
}

TEST(CampaignOutcomes, InvalidSiteIsInfraErrorOnlyForThatFault) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 2});
  std::vector<fault::Fault> faults =
      first_faults(f.model, CutId::kMultiplier, 4);
  fault::Fault bogus;
  bogus.site.gate = 0x40000000u;  // far outside the netlist
  bogus.stuck_value = true;
  faults.insert(faults.begin() + 2, bogus);

  const std::vector<InjectionOutcome> out =
      run_injection_campaign(session, f.program, CutId::kMultiplier, faults);
  ASSERT_EQ(out.size(), faults.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (k == 2) {
      EXPECT_EQ(out[k].outcome, RunOutcome::kInfraError);
      EXPECT_FALSE(out[k].detected);
      EXPECT_TRUE(out[k].faulty_signatures.empty());
    } else {
      EXPECT_NE(out[k].outcome, RunOutcome::kInfraError)
          << "fault " << k << " caught the bogus fault's infra error";
    }
  }
  const OutcomeHistogram h = histogram_of(out);
  EXPECT_EQ(h.count(RunOutcome::kInfraError), 1u);
  EXPECT_EQ(h.total(), faults.size());

  // The pool survives the throwing task: the same session runs the same
  // campaign again with identical classification.
  const std::vector<InjectionOutcome> again =
      run_injection_campaign(session, f.program, CutId::kMultiplier, faults);
  ASSERT_EQ(again.size(), out.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(again[k].outcome, out[k].outcome);
    EXPECT_EQ(again[k].faulty_signatures, out[k].faulty_signatures);
  }

  // The session-less serial form degrades the same fault the same way.
  const std::vector<InjectionOutcome> serial =
      run_injection_campaign(f.model, f.program, CutId::kMultiplier, faults);
  ASSERT_EQ(serial.size(), out.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(serial[k].outcome, out[k].outcome);
  }

  // An input pin the gate does not have is no site either, under every
  // fault model: each such fault alone is kInfraError, in both forms.
  std::vector<fault::Fault> alu_faults = first_faults(f.model, CutId::kAlu, 4);
  for (const fault::Fault& unconnected : unconnected_pin_faults(f.model)) {
    alu_faults.insert(alu_faults.begin() + 1, unconnected);
  }
  const auto expect_infra_only_unconnected =
      [&](const std::vector<InjectionOutcome>& got, const char* form) {
        ASSERT_EQ(got.size(), alu_faults.size()) << form;
        for (std::size_t k = 0; k < got.size(); ++k) {
          const bool unconnected = k >= 1 && k <= 4;
          EXPECT_EQ(got[k].outcome == RunOutcome::kInfraError, unconnected)
              << form << " fault " << k;
        }
      };
  expect_infra_only_unconnected(
      run_injection_campaign(session, f.program, CutId::kAlu, alu_faults),
      "session");
  expect_infra_only_unconnected(
      run_injection_campaign(f.model, f.program, CutId::kAlu, alu_faults),
      "session-less");
}

TEST(CampaignOutcomes, InvalidSiteThrowsFromSingleInjection) {
  // The single-run form has no campaign wrapper to degrade into
  // kInfraError, so the validation seam surfaces as an exception.
  CampaignFixture& f = fixture();
  fault::Fault bogus;
  bogus.site.gate = 0x40000000u;
  EXPECT_THROW(run_with_injection(f.model, f.program, CutId::kAlu, bogus),
               std::out_of_range);
  GradingSession session(f.model, {.num_threads = 1});
  for (const fault::Fault& unconnected : unconnected_pin_faults(f.model)) {
    const std::string where = fault::fault_model_name(unconnected.model);
    EXPECT_THROW(
        run_with_injection(f.model, f.program, CutId::kAlu, unconnected),
        std::out_of_range)
        << where;
    EXPECT_THROW(
        run_with_injection(session, f.program, CutId::kAlu, unconnected),
        std::out_of_range)
        << where;
  }
}

// ---- per-operation oracle: every fault model --------------------------------

// The injector's semantics spelled out the slow way: every hooked operation
// drives a reference netlist::Evaluator and evaluates it, with the force
// injected or released per operation by the fault model's activation rule
// (transition: launch/capture on the fault-free line value from a second,
// un-faulted evaluator). No memo and no behavioural shortcut.
class PerOpOracle final : public sim::CpuHooks {
 public:
  PerOpOracle(const netlist::Netlist& nl, CutId target,
              const fault::Fault& fault)
      : nl_(nl),
        target_(target),
        fault_(fault),
        key_(fault::fault_stream_key(fault)),
        eval_(nl),
        line_eval_(nl),
        line_(fault.site.is_output()
                  ? fault.site.gate
                  : nl.gate(fault.site.gate).in[fault.site.pin]) {}

  std::optional<std::uint32_t> alu_result(rtlgen::AluOp op, std::uint32_t a,
                                          std::uint32_t b) override {
    if (target_ != CutId::kAlu) return std::nullopt;
    drive("a", a);
    drive("b", b);
    drive("op", static_cast<std::uint64_t>(op));
    const auto r = static_cast<std::uint32_t>(read("result"));
    if (r != rtlgen::alu_ref(op, a, b)) ++corrupted_;
    return r;
  }
  std::optional<std::uint32_t> shift_result(rtlgen::ShiftOp op,
                                            std::uint32_t value,
                                            std::uint32_t shamt) override {
    if (target_ != CutId::kShifter) return std::nullopt;
    drive("a", value);
    drive("shamt", shamt);
    drive("op", static_cast<std::uint64_t>(op));
    const auto r = static_cast<std::uint32_t>(read("result"));
    if (r != rtlgen::shifter_ref(op, value, shamt)) ++corrupted_;
    return r;
  }
  std::optional<std::uint64_t> mult_result(std::uint32_t a,
                                           std::uint32_t b) override {
    if (target_ != CutId::kMultiplier) return std::nullopt;
    drive("a", a);
    drive("b", b);
    const std::uint64_t r = read("product");
    if (r != rtlgen::multiplier_ref(a, b)) ++corrupted_;
    return r;
  }

  std::uint64_t corrupted() const { return corrupted_; }

 private:
  void drive(const char* port, std::uint64_t value) {
    eval_.set_bus(nl_.input_port(port), value);
    line_eval_.set_bus(nl_.input_port(port), value);
  }
  std::uint64_t read(const char* port) {
    bool on = true;
    if (fault_.model == fault::FaultModel::kTransition) {
      line_eval_.eval();
      const bool lv = line_eval_.value(line_) & 1u;
      on = prev_line_sv_ && lv != fault_.stuck_value;
      prev_line_sv_ = lv == fault_.stuck_value;
    } else if (fault_.model != fault::FaultModel::kStuckAt) {
      on = fault::fault_active(key_, fault_.model, op_index_);
    }
    ++op_index_;
    if (on) {
      eval_.inject_broadcast(fault_.site, fault_.stuck_value);
    } else {
      eval_.release_broadcast(fault_.site);
    }
    eval_.eval();
    return eval_.bus_value(nl_.output_port(port));
  }

  const netlist::Netlist& nl_;
  CutId target_;
  fault::Fault fault_;
  std::uint64_t key_;
  netlist::Evaluator eval_;
  netlist::Evaluator line_eval_;
  netlist::NetId line_;
  std::uint64_t op_index_ = 0;
  bool prev_line_sv_ = false;
  std::uint64_t corrupted_ = 0;
};

// One guarded faulty run through the oracle, classified with the same
// budget, store guard and signature conventions as the campaign runtime.
InjectionOutcome oracle_outcome(const ProcessorModel& model,
                                const TestProgram& p, CutId target,
                                const fault::Fault& fault, double factor) {
  InjectionOutcome out;
  sim::Cpu good;
  good.reset();
  good.load(p.image);
  const sim::ExecStats good_stats = good.run(p.entry);
  EXPECT_TRUE(good_stats.halted);
  for (unsigned slot = 0; slot < kSignatureSlots; ++slot) {
    out.good_signatures.push_back(good.read_word(p.signature_address(slot)));
  }
  const sim::RunBudget budget = run_budget_for(good_stats, factor);
  const sim::StoreGuard guard = store_guard_for(p);

  PerOpOracle oracle(model.component(target).netlist, target, fault);
  sim::Cpu bad;
  bad.reset();
  bad.load(p.image);
  sim::InjectSink<PerOpOracle> sink{&oracle};
  const sim::GuardedResult run =
      bad.run_guarded(p.entry, sink, budget, &guard);
  out.stop = run.reason;
  out.faulty_stats = run.stats;
  const bool clean = run.reason == sim::StopReason::kHalted;
  for (unsigned slot = 0; slot < kSignatureSlots; ++slot) {
    out.faulty_signatures.push_back(
        clean ? bad.read_word(p.signature_address(slot))
              : ~out.good_signatures[slot]);
  }
  out.corrupted_results = oracle.corrupted();
  out.outcome = classify_stop(run.reason,
                              out.good_signatures == out.faulty_signatures);
  out.detected = outcome_detected(out.outcome);
  return out;
}

void expect_same_outcome(const InjectionOutcome& got,
                         const InjectionOutcome& want,
                         const std::string& where) {
  EXPECT_EQ(got.outcome, want.outcome) << where;
  EXPECT_EQ(got.detected, want.detected) << where;
  EXPECT_EQ(got.stop, want.stop) << where;
  EXPECT_EQ(got.corrupted_results, want.corrupted_results) << where;
  EXPECT_EQ(got.good_signatures, want.good_signatures) << where;
  EXPECT_EQ(got.faulty_signatures, want.faulty_signatures) << where;
  const sim::ExecStats& g = got.faulty_stats;
  const sim::ExecStats& w = want.faulty_stats;
  EXPECT_EQ(g.instructions, w.instructions) << where;
  EXPECT_EQ(g.cpu_cycles, w.cpu_cycles) << where;
  EXPECT_EQ(g.pipeline_stall_cycles, w.pipeline_stall_cycles) << where;
  EXPECT_EQ(g.memory_stall_cycles, w.memory_stall_cycles) << where;
  EXPECT_EQ(g.loads, w.loads) << where;
  EXPECT_EQ(g.stores, w.stores) << where;
  EXPECT_EQ(g.icache_misses, w.icache_misses) << where;
  EXPECT_EQ(g.dcache_misses, w.dcache_misses) << where;
  EXPECT_EQ(g.icache_accesses, w.icache_accesses) << where;
  EXPECT_EQ(g.dcache_accesses, w.dcache_accesses) << where;
  EXPECT_EQ(g.halted, w.halted) << where;
}

// `n` distinct collapsed faults of `cut` under `model`, drawn with a fixed
// seed.
std::vector<fault::Fault> sampled_faults(GradingSession& session, CutId cut,
                                         fault::FaultModel model,
                                         std::size_t n, std::uint64_t seed) {
  const std::vector<fault::Fault>& all =
      session.universe(cut, model).collapsed();
  Rng rng(seed);
  std::set<std::size_t> picked;
  std::vector<fault::Fault> out;
  while (out.size() < n && picked.size() < all.size()) {
    const std::size_t i = rng.below(all.size());
    if (picked.insert(i).second) out.push_back(all[i]);
  }
  return out;
}

// Off-path tuples of one guarded run through the campaign-form injector
// with the session's good-path table (screened or swept alike), and whether
// it reached `break`.
struct PathProbe {
  bool halted = false;
  std::uint64_t off_path_tuples = 0;
};

PathProbe probe_path(GradingSession& session, const TestProgram& p,
                     CutId cut, const fault::Fault& fault,
                     const sim::RunBudget& budget) {
  const auto table = session.good_path(p, {}, cut);
  GateLevelFaultInjector injector(session.model().component(cut).netlist,
                                  session.compiled(cut), *table, cut, fault);
  const sim::StoreGuard guard = store_guard_for(p);
  sim::Cpu bad;
  bad.reset();
  bad.load(p.image);
  sim::InjectSink<GateLevelFaultInjector> sink{&injector};
  const sim::GuardedResult run =
      bad.run_guarded(p.entry, sink, budget, &guard);
  return {run.reason == sim::StopReason::kHalted, injector.off_path_tuples()};
}

// Two faults of `cut` under `model`, in a seeded scan of the collapsed
// universe: the first whose run applies only good-path tuples all the way
// to `break` (every faulty answer comes from a table block), and the
// first whose run applies at least one tuple off the good path (answered
// by the excitation screen or a single-tuple evaluation).
std::vector<fault::Fault> good_path_and_off_path_faults(
    GradingSession& session, const TestProgram& p, CutId cut,
    fault::FaultModel model, double factor) {
  sim::Cpu good;
  good.reset();
  good.load(p.image);
  const sim::RunBudget budget = run_budget_for(good.run(p.entry), factor);
  const std::vector<fault::Fault> scan = sampled_faults(
      session, cut, model, 256, 0x9a7f + static_cast<unsigned>(model));
  std::optional<fault::Fault> on_path, off_path;
  for (const fault::Fault& fa : scan) {
    const PathProbe probe = probe_path(session, p, cut, fa, budget);
    if (!on_path && probe.halted && probe.off_path_tuples == 0) on_path = fa;
    if (!off_path && probe.off_path_tuples > 0) off_path = fa;
    if (on_path && off_path) break;
  }
  EXPECT_TRUE(on_path.has_value()) << "no fault stays on the good path";
  EXPECT_TRUE(off_path.has_value()) << "no fault leaves the good path";
  std::vector<fault::Fault> out;
  if (on_path) out.push_back(*on_path);
  if (off_path) out.push_back(*off_path);
  return out;
}

// Each product (high word folded into the low) is the next multiplicand,
// 64 times over, so a multiplier fault that corrupts one product moves
// every later multiplication off the good path.
Routine chained_multiply_routine() {
  Routine r;
  r.name = "mulchain";
  r.target = CutId::kMultiplier;
  r.strategy = TpgStrategy::kNone;
  r.style = "crafted";
  r.assembly =
      "li    $t0, 0x9e3779b9\n"
      "li    $t1, 0x7f4a7c15\n"
      "li    $t3, 64\n"
      "mulchain_loop:\n"
      "multu $t0, $t1\n"
      "mfhi  $t2\n"
      "mflo  $t0\n"
      "xor   $t0, $t0, $t2\n"
      "addiu $t3, $t3, -1\n"
      "bne   $t3, $zero, mulchain_loop\n"
      "nop\n"
      "la    $s6, signatures\n"
      "sw    $t0, 0($s6)\n";
  r.sig_slot = 0;
  return r;
}

class InjectionOracle : public ::testing::TestWithParam<CutId> {};

// Seeded samples of every fault model, run through the campaign (1 and 4
// threads) and through the per-operation oracle: every InjectionOutcome
// field must agree. Each sample includes a fault that stays on the good
// path and one that leaves it, so both the swept-table answers and the
// single-tuple evaluations face the oracle. A budget factor of 2 keeps hang
// runs short without hiding them.
TEST_P(InjectionOracle, CampaignMatchesPerOperationReference) {
  constexpr std::size_t kSample = 4;
  constexpr double kFactor = 2.0;
  CampaignFixture& f = fixture();
  const CutId cut = GetParam();
  InjectOptions inject;
  inject.budget_factor = kFactor;
  GradingSession serial(f.model, {.num_threads = 1});
  GradingSession parallel(f.model, {.num_threads = 4});
  const netlist::Netlist& nl = f.model.component(cut).netlist;
  // No multiplier fault leaves the default program's good path: its
  // products never feed a later multiplication. A chained routine, where
  // each product is the next multiplicand, supplies the multiplier's
  // good-path and off-path faults.
  const TestProgram path_program =
      cut == CutId::kMultiplier
          ? f.builder.build_standalone(chained_multiply_routine())
          : f.program;
  OutcomeHistogram seen;
  const auto expect_oracle = [&](const TestProgram& p,
                                 const std::vector<fault::Fault>& faults) {
    const std::vector<InjectionOutcome> one =
        run_injection_campaign(serial, p, cut, faults, {}, inject);
    const std::vector<InjectionOutcome> four =
        run_injection_campaign(parallel, p, cut, faults, {}, inject);
    ASSERT_EQ(one.size(), faults.size());
    ASSERT_EQ(four.size(), faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k) {
      const InjectionOutcome want =
          oracle_outcome(f.model, p, cut, faults[k], kFactor);
      const std::string where = fault::fault_name(nl, faults[k]);
      expect_same_outcome(one[k], want, where + " (1 thread)");
      expect_same_outcome(four[k], want, where + " (4 threads)");
      seen.add(want.outcome);
    }
  };
  for (const fault::FaultModel fm : kAllModels) {
    std::vector<fault::Fault> faults = sampled_faults(
        serial, cut, fm, kSample, 0x0a11ce + static_cast<unsigned>(fm));
    if (cut == CutId::kAlu) {
      // ALU result bit 31 feeds every computed address: forced to 1 it
      // sends loads and stores outside the program (trap / wild store).
      fault::Fault address = alu_result_bit31_sa1(f.model);
      address.model = fm;
      faults.push_back(address);
    }
    expect_oracle(f.program, faults);
    expect_oracle(path_program, good_path_and_off_path_faults(
                                    serial, path_program, cut, fm, kFactor));
  }
  EXPECT_EQ(seen.count(RunOutcome::kInfraError), 0u);
  if (cut == CutId::kAlu) {
    // The sample must reach the symptom endings, not only clean runs.
    EXPECT_GE(seen.count(RunOutcome::kDetectedHang), 1u);
    EXPECT_GE(seen.count(RunOutcome::kDetectedTrap) +
                  seen.count(RunOutcome::kDetectedWildStore),
              1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Cuts, InjectionOracle,
                         ::testing::Values(CutId::kAlu, CutId::kShifter,
                                           CutId::kMultiplier),
                         [](const ::testing::TestParamInfo<CutId>& info) {
                           switch (info.param) {
                             case CutId::kAlu: return std::string("Alu");
                             case CutId::kShifter:
                               return std::string("Shifter");
                             default: return std::string("Multiplier");
                           }
                         });

// ---- armed-result table: eviction and history independence ----------------

struct OpTuple {
  std::uint32_t op, a, b;
  friend bool operator<(const OpTuple& x, const OpTuple& y) {
    return std::tie(x.op, x.a, x.b) < std::tie(y.op, y.a, y.b);
  }
};

struct CutPorts {
  const netlist::Bus* a;
  const netlist::Bus* b;
  const netlist::Bus* op;  // null for the multiplier
  const netlist::Bus* out;
};

CutPorts ports_of(const netlist::Netlist& nl, CutId cut) {
  switch (cut) {
    case CutId::kAlu:
      return {&nl.input_port("a"), &nl.input_port("b"), &nl.input_port("op"),
              &nl.output_port("result")};
    case CutId::kShifter:
      return {&nl.input_port("a"), &nl.input_port("shamt"),
              &nl.input_port("op"), &nl.output_port("result")};
    default:
      return {&nl.input_port("a"), &nl.input_port("b"), nullptr,
              &nl.output_port("product")};
  }
}

// Evaluates every tuple through a full-sweep reference Evaluator, 64 tuples
// per pass (one per lane). Returns the output bus per tuple, and the value
// of `probe` per tuple when it names a net.
std::vector<std::uint64_t> reference_outputs(
    netlist::Evaluator& ev, const CutPorts& ports,
    const std::vector<OpTuple>& tuples, netlist::NetId probe = netlist::kNoNet,
    std::vector<bool>* probe_values = nullptr) {
  const auto drive = [&ev](const netlist::Bus& bus, const OpTuple* t,
                           std::size_t n, std::uint32_t OpTuple::*field) {
    for (std::size_t bit = 0; bit < bus.size(); ++bit) {
      std::uint64_t word = 0;
      for (std::size_t lane = 0; lane < n; ++lane) {
        word |= std::uint64_t{(t[lane].*field >> bit) & 1u} << lane;
      }
      ev.set_input_word(bus[bit], word);
    }
  };
  std::vector<std::uint64_t> out;
  for (std::size_t base = 0; base < tuples.size(); base += 64) {
    const std::size_t n = std::min<std::size_t>(64, tuples.size() - base);
    drive(*ports.a, &tuples[base], n, &OpTuple::a);
    drive(*ports.b, &tuples[base], n, &OpTuple::b);
    if (ports.op) drive(*ports.op, &tuples[base], n, &OpTuple::op);
    ev.eval();
    for (std::size_t lane = 0; lane < n; ++lane) {
      out.push_back(ev.bus_value(*ports.out, static_cast<unsigned>(lane)));
      if (probe_values) {
        probe_values->push_back((ev.value(probe) >> lane) & 1u);
      }
    }
  }
  return out;
}

// Every op code of `cut`; the multiplier has no op port.
std::vector<std::uint32_t> ops_of(CutId cut) {
  switch (cut) {
    case CutId::kAlu: return {0, 1, 2, 3, 4, 5, 6, 7};
    case CutId::kShifter: return {0, 2, 3};
    default: return {0};
  }
}

std::optional<std::uint64_t> hook_result(GateLevelFaultInjector& injector,
                                         CutId cut, const OpTuple& t) {
  switch (cut) {
    case CutId::kAlu:
      return injector.alu_result(static_cast<rtlgen::AluOp>(t.op), t.a, t.b);
    case CutId::kShifter:
      return injector.shift_result(static_cast<rtlgen::ShiftOp>(t.op), t.a,
                                   t.b);
    default:
      return injector.mult_result(t.a, t.b);
  }
}

std::uint64_t behavioural_result(CutId cut, const OpTuple& t) {
  switch (cut) {
    case CutId::kAlu:
      return rtlgen::alu_ref(static_cast<rtlgen::AluOp>(t.op), t.a, t.b);
    case CutId::kShifter:
      return rtlgen::shifter_ref(static_cast<rtlgen::ShiftOp>(t.op), t.a,
                                 t.b);
    default:
      return rtlgen::multiplier_ref(t.a, t.b);
  }
}

// More distinct random tuples than the memo holds (all off the program's
// good path), interleaved with repeats of earlier (possibly evicted or
// colliding) ones: every answer must
// equal the reference netlist with the force armed when the operation is
// active, and the behavioural reference when it is not — for all three
// CUTs and all four fault models.
TEST(InjectorMemo, AnswersIndependentOfHistoryAndEviction) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 1});
  constexpr std::size_t kSlots = GateLevelFaultInjector::kMemoSlots;
  constexpr std::size_t kDistinct = kSlots + kSlots / 4;
  for (const CutId cut : {CutId::kAlu, CutId::kShifter, CutId::kMultiplier}) {
    const netlist::Netlist& nl = f.model.component(cut).netlist;
    const CutPorts ports = ports_of(nl, cut);
    const auto good_path = session.good_path(f.program, {}, cut);
    Rng rng(0x5107 + static_cast<unsigned>(cut));

    // Tuples come in families that differ in one operand only: 32 values
    // of b under one (op, a), 32 values of a under one (op, b), each under
    // every op. Slot collisions inside a family are then common, and they
    // are the ones a partial tag compare would get wrong.
    const std::vector<std::uint32_t> ops = ops_of(cut);
    std::set<OpTuple> unique;
    std::vector<OpTuple> distinct;
    const auto add = [&](std::uint32_t a, std::uint32_t b) {
      for (const std::uint32_t op : ops) {
        const OpTuple t{op, a, b};
        if (distinct.size() < kDistinct && unique.insert(t).second) {
          distinct.push_back(t);
        }
      }
    };
    while (distinct.size() < kDistinct) {
      const std::uint32_t a0 = rng.next32();
      const std::uint32_t b0 = cut == CutId::kShifter ? 0 : rng.next32();
      for (std::uint32_t j = 0; j < 32; ++j) {
        add(a0, cut == CutId::kShifter ? j : rng.next32());
        add(rng.next32(), b0);
      }
    }
    // Call order: each new tuple, and after every other one a repeat of a
    // random earlier tuple.
    std::vector<std::size_t> calls;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      calls.push_back(i);
      if (i % 2 == 1) calls.push_back(rng.below(i + 1));
    }

    for (const fault::FaultModel fm : kAllModels) {
      // An output-bit fault (visible on half of all tuples) and a seeded
      // interior one.
      fault::Fault out_bit{netlist::Site{(*ports.out)[3]},
                           fm != fault::FaultModel::kTransition, fm};
      std::vector<fault::Fault> faults = sampled_faults(
          session, cut, fm, 1, 0xe71c + static_cast<unsigned>(fm));
      faults.push_back(out_bit);
      for (const fault::Fault& fa : faults) {
        const std::string where = std::string(f.model.component(cut).name) +
                                  " " + fault::fault_name(nl, fa);
        netlist::Evaluator armed(nl);
        armed.inject_broadcast(fa.site, fa.stuck_value);
        const std::vector<std::uint64_t> faulty =
            reference_outputs(armed, ports, distinct);
        std::vector<bool> line_values;
        if (fm == fault::FaultModel::kTransition) {
          netlist::Evaluator fault_free(nl);
          reference_outputs(fault_free, ports, distinct,
                            fa.site.is_output()
                                ? fa.site.gate
                                : nl.gate(fa.site.gate).in[fa.site.pin],
                            &line_values);
        }

        GateLevelFaultInjector injector(nl, session.compiled(cut), *good_path,
                                        cut, fa);
        const std::uint64_t key = fault::fault_stream_key(fa);
        bool prev_sv = false;
        std::size_t mismatches = 0, active_ops = 0, faulty_answers = 0;
        for (std::size_t k = 0; k < calls.size(); ++k) {
          const std::size_t i = calls[k];
          bool active = true;
          if (fm == fault::FaultModel::kTransition) {
            const bool lv = line_values[i];
            active = prev_sv && lv != fa.stuck_value;
            prev_sv = lv == fa.stuck_value;
          } else if (fm != fault::FaultModel::kStuckAt) {
            active = fault::fault_active(key, fm, k);
          }
          const std::uint64_t good = behavioural_result(cut, distinct[i]);
          const std::uint64_t want = active ? faulty[i] : good;
          const std::optional<std::uint64_t> got =
              hook_result(injector, cut, distinct[i]);
          ASSERT_TRUE(got.has_value()) << where;
          if (*got != want) ++mismatches;
          active_ops += active;
          faulty_answers += want != good;
        }
        EXPECT_EQ(mismatches, 0u) << where;
        EXPECT_EQ(injector.corrupted_results(), faulty_answers) << where;
        EXPECT_GT(active_ops, 0u) << where;
        if (fa == out_bit) {
          EXPECT_GT(faulty_answers, 0u) << where << ": fault never visible";
        }
      }
    }
  }
}

// ---- excitation screen ---------------------------------------------------------

// A seeded sample of the collapsed faults of `cut` under `model`, plus the
// first fault of a seeded scan in each site class the screen must handle:
// an output site, a pin whose driver fans out, and a site on a gate the
// netlist passes rewrite — a buffer or inverter, which the fuse pass
// bypasses (the ALU has 65), or a constant or a gate with a constant pin,
// which the const-fold pass folds (the shifter and the multiplier have
// those, and no inverters).
std::vector<fault::Fault> screen_faults(GradingSession& session, CutId cut,
                                        fault::FaultModel model) {
  const netlist::Netlist& nl = session.model().component(cut).netlist;
  const std::vector<std::uint32_t> fanout = nl.fanout_counts();
  const auto is_const = [&nl](netlist::NetId n) {
    return nl.gate(n).kind == netlist::GateKind::kConst0 ||
           nl.gate(n).kind == netlist::GateKind::kConst1;
  };
  struct SiteClass {
    const char* name;
    std::function<bool(const fault::Fault&)> holds;
  };
  const SiteClass classes[] = {
      {"output site", [](const fault::Fault& fa) { return fa.site.is_output(); }},
      {"pin site whose driver fans out",
       [&](const fault::Fault& fa) {
         return !fa.site.is_output() &&
                fanout[nl.gate(fa.site.gate).in[fa.site.pin]] > 1;
       }},
      {"site on a fused or const-folded gate",
       [&](const fault::Fault& fa) {
         const netlist::Gate& g = nl.gate(fa.site.gate);
         if (g.kind == netlist::GateKind::kBuf ||
             g.kind == netlist::GateKind::kNot || is_const(fa.site.gate)) {
           return true;
         }
         for (unsigned p = 0; p < netlist::fanin_count(g.kind); ++p) {
           if (is_const(g.in[p])) return true;
         }
         return false;
       }},
  };
  const std::uint64_t seed = 0x5c4ee + static_cast<unsigned>(model);
  std::vector<fault::Fault> out = sampled_faults(session, cut, model, 4, seed);
  std::vector<fault::Fault> scan = session.universe(cut, model).collapsed();
  Rng rng(seed);
  for (std::size_t i = scan.size(); i > 1; --i) {
    std::swap(scan[i - 1], scan[rng.below(i)]);
  }
  for (const SiteClass& c : classes) {
    const auto it = std::find_if(scan.begin(), scan.end(), c.holds);
    EXPECT_NE(it, scan.end()) << nl.name() << ": no " << c.name;
    if (it != scan.end()) out.push_back(*it);
  }
  return out;
}

// The campaign form screens every tuple for excitation before a forced
// sweep; the reference form sweeps every active tuple. On the good-path
// tuples and on random off-path tuples, shuffled and with repeats, both must
// give the same answer to every operation, under all four fault models, and
// the off-path tuples must include both screened and swept ones.
TEST(InjectorScreen, MatchesReferenceFormOnEveryPath) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 1});
  for (const CutId cut : {CutId::kAlu, CutId::kShifter, CutId::kMultiplier}) {
    const netlist::Netlist& nl = f.model.component(cut).netlist;
    const std::string name = f.model.component(cut).name;
    const auto good_path = session.good_path(f.program, {}, cut);
    Rng rng(0x5c4e + static_cast<unsigned>(cut));
    const std::vector<std::uint32_t> ops = ops_of(cut);
    std::vector<OpTuple> tuples;
    for (std::size_t i = 0; i < good_path->size(); ++i) {
      const GoodPathTable::Tuple& t = good_path->tuple(i);
      tuples.push_back({t.op, t.a, t.b});
    }
    for (int k = 0; k < 512; ++k) {
      const std::uint32_t b = rng.next32();
      tuples.push_back({ops[rng.below(ops.size())], rng.next32(),
                        cut == CutId::kShifter ? b % 32 : b});
    }
    for (std::size_t i = tuples.size(); i > 1; --i) {
      std::swap(tuples[i - 1], tuples[rng.below(i)]);
    }
    std::vector<OpTuple> calls;
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      calls.push_back(tuples[i]);
      if (i % 2 == 1) calls.push_back(tuples[rng.below(i + 1)]);
    }

    std::uint64_t screened = 0, swept = 0, op_blocked = 0;
    for (const fault::FaultModel fm : kAllModels) {
      for (const fault::Fault& fa : screen_faults(session, cut, fm)) {
        const std::string where = name + " " + fault::fault_name(nl, fa);
        GateLevelFaultInjector campaign(nl, session.compiled(cut), *good_path,
                                        cut, fa);
        GateLevelFaultInjector reference(f.model, cut, fa);
        std::size_t mismatches = 0;
        for (const OpTuple& t : calls) {
          const std::optional<std::uint64_t> got =
              hook_result(campaign, cut, t);
          const std::optional<std::uint64_t> want =
              hook_result(reference, cut, t);
          ASSERT_TRUE(got.has_value() && want.has_value()) << where;
          mismatches += *got != *want;
        }
        EXPECT_EQ(mismatches, 0u) << where;
        EXPECT_EQ(campaign.corrupted_results(), reference.corrupted_results())
            << where;
        EXPECT_EQ(reference.off_path_evals(), reference.off_path_tuples())
            << where;
        ASSERT_LE(campaign.off_path_evals(), campaign.off_path_tuples())
            << where;
        screened += campaign.off_path_tuples() - campaign.off_path_evals();
        swept += campaign.off_path_evals();
        EXPECT_EQ(reference.op_blocked(), 0u) << where;
        op_blocked += campaign.op_blocked();
      }
    }
    EXPECT_GT(screened, 0u) << name << ": no off-path tuple was screened";
    EXPECT_GT(swept, 0u) << name << ": no off-path tuple was swept";
    if (cut == CutId::kAlu) {
      EXPECT_GT(op_blocked, 0u) << name << ": no operation was op-blocked";
    }
  }
}

// ---- op-blocking screen ------------------------------------------------------

// Every collapsed stuck-at fault of the ALU and the shifter, under every op
// value the CPU issues that the campaign form's op-blocking screen marks
// blocked (the shifter never issues op 01): the unscreened reference form's
// evaluation, a reference Evaluator with the fault forced, must give the
// behavioural result on the corner operand pairs over 0, 1, ~0 and
// 0x80000000 and on 256 random pairs. It is batched 64 pairs per sweep; one
// reference-form call per pair would make this test about 20 times slower.
// The check is not vacuous: ADD, SUB, AND and XOR each have blocked ALU
// faults.
TEST(OpBlockingScreen, BlockedOpsGiveTheGoodResultForEveryOperandPair) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 1});
  for (const CutId cut : {CutId::kAlu, CutId::kShifter}) {
    const netlist::Netlist& nl = f.model.component(cut).netlist;
    const std::string name = f.model.component(cut).name;
    const CutPorts ports = ports_of(nl, cut);
    const auto good_path = session.good_path(f.program, {}, cut);
    const std::uint32_t shamt_mask = cut == CutId::kShifter ? 31 : ~0u;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> operands;
    for (const std::uint32_t a : {0u, 1u, ~0u, 0x80000000u}) {
      for (const std::uint32_t b : {0u, 1u, ~0u, 0x80000000u}) {
        operands.emplace_back(a, b & shamt_mask);
      }
    }
    Rng rng(0xb10c + static_cast<unsigned>(cut));
    for (int k = 0; k < 256; ++k) {
      const std::uint32_t a = rng.next32();
      operands.emplace_back(a, rng.next32() & shamt_mask);
    }
    std::map<std::uint32_t, std::size_t> blocked_faults;  // per op value
    for (const fault::Fault& fa :
         session.universe(cut, fault::FaultModel::kStuckAt).collapsed()) {
      const GateLevelFaultInjector campaign(nl, session.compiled(cut),
                                            *good_path, cut, fa);
      std::vector<OpTuple> tuples;
      for (const std::uint32_t op : ops_of(cut)) {
        if (((campaign.blocked_ops() >> op) & 1u) == 0) continue;
        ++blocked_faults[op];
        for (const auto& [a, b] : operands) tuples.push_back({op, a, b});
      }
      if (tuples.empty()) continue;
      netlist::Evaluator armed(nl);
      armed.inject_broadcast(fa.site, fa.stuck_value);
      const std::vector<std::uint64_t> faulty =
          reference_outputs(armed, ports, tuples);
      std::map<std::uint32_t, std::size_t> mismatches;  // per op value
      for (std::size_t i = 0; i < tuples.size(); ++i) {
        mismatches[tuples[i].op] +=
            faulty[i] != behavioural_result(cut, tuples[i]);
      }
      for (const auto& [op, n] : mismatches) {
        EXPECT_EQ(n, 0u)
            << name << " " << fault::fault_name(nl, fa) << " op " << op;
      }
    }
    if (cut == CutId::kAlu) {
      for (const rtlgen::AluOp op : {rtlgen::AluOp::kAdd, rtlgen::AluOp::kSub,
                                     rtlgen::AluOp::kAnd,
                                     rtlgen::AluOp::kXor}) {
        EXPECT_GT(blocked_faults[static_cast<std::uint32_t>(op)], 0u)
            << "no ALU fault is blocked under op " << static_cast<int>(op);
      }
    }
  }
}

// A hand-built two-bit "ALU" with a one-bit op port; each case adds its
// logic and the result bus.
struct TinyCut {
  netlist::Netlist nl{"tiny"};
  netlist::Bus a = nl.input_bus("a", 2);
  netlist::Bus b = nl.input_bus("b", 2);
  netlist::NetId op = nl.input_bus("op", 1)[0];
};

// The op values the campaign form's screen blocks for `fa`.
std::uint32_t screened_ops(const netlist::Netlist& nl, const fault::Fault& fa) {
  const netlist::CompiledNetlist compiled(nl);
  const GoodPathTable table(nl, CutId::kAlu, fault::PatternSet(nl));
  EXPECT_EQ(table.all_ops(), 0b11u);
  const GateLevelFaultInjector injector(nl, compiled, table, CutId::kAlu, fa);
  return injector.blocked_ops();
}

// The op values under which no operand pair makes the result with `fa`
// forced differ from the fault-free result (exhaustive).
std::uint32_t unexposed_ops(const netlist::Netlist& nl,
                            const fault::Fault& fa) {
  netlist::Evaluator good(nl), bad(nl);
  bad.inject_broadcast(fa.site, fa.stuck_value);
  const netlist::Bus& out = nl.output_port("result");
  std::uint32_t unexposed = 0b11;
  for (std::uint32_t op = 0; op < 2; ++op) {
    for (std::uint32_t a = 0; a < 4; ++a) {
      for (std::uint32_t b = 0; b < 4; ++b) {
        for (netlist::Evaluator* ev : {&good, &bad}) {
          ev->set_bus(nl.input_port("a"), a);
          ev->set_bus(nl.input_port("b"), b);
          ev->set_bus(nl.input_port("op"), op);
          ev->eval();
        }
        if (good.bus_value(out) != bad.bus_value(out)) {
          unexposed &= ~(1u << op);
        }
      }
    }
  }
  return unexposed;
}

// On these CUTs the screen is complete as well as exact, so each case pins
// the blocked mask both ways: against the hand-derived value and against
// exhaustive simulation.
void expect_blocked(const netlist::Netlist& nl, const fault::Fault& fa,
                    std::uint32_t want, const char* what) {
  EXPECT_EQ(unexposed_ops(nl, fa), want) << what;
  EXPECT_EQ(screened_ops(nl, fa), want) << what;
}

// result = op ? b0 : a0. A constant select blocks the data pin it does not
// pick, and only that one.
TEST(OpBlockingScreen, MuxSelectBlocksTheUnpickedDataPin) {
  TinyCut c;
  c.nl.output_bus("result", {c.nl.mux2(c.op, c.a[0], c.b[0])});
  expect_blocked(c.nl, {netlist::Site{c.a[0]}, false}, 0b10, "d0 sa0");
  expect_blocked(c.nl, {netlist::Site{c.b[0]}, true}, 0b01, "d1 sa1");
}

// result0 = buf(op) & buf(op). Under op 0 both AND inputs hold the
// controlling 0 fault-free, but both are in the fault's closure, so neither
// blocks the other: op stuck-at-1 is exposed under op 0 (and unexcited
// under op 1).
TEST(OpBlockingScreen, ControllingSideInputInTheClosureDoesNotBlock) {
  TinyCut c;
  const netlist::NetId p = c.nl.buf(c.op);
  const netlist::NetId q = c.nl.buf(c.op);
  c.nl.output_bus("result",
                  {c.nl.and_(p, q), c.nl.xor_(c.a[0], c.b[0])});
  expect_blocked(c.nl, {netlist::Site{c.op}, true}, 0b10, "op sa1");
}

// result0 = a0 & op, result1 = a0 ^ b0. A stuck-at-1 on the AND's a0 pin is
// blocked at its own gate under op 0; a0's own output fault still reaches
// result1.
TEST(OpBlockingScreen, PinFaultBlockedAtItsOwnGate) {
  TinyCut c;
  const netlist::NetId g = c.nl.and_(c.a[0], c.op);
  c.nl.output_bus("result", {g, c.nl.xor_(c.a[0], c.b[0])});
  expect_blocked(c.nl, {netlist::Site{g, 0}, true}, 0b01, "AND pin a0 sa1");
  expect_blocked(c.nl, {netlist::Site{c.a[0]}, true}, 0b00, "a0 sa1");
}

// result0 = (op | a0) ^ b0. Under op 1 the OR is constant 1, so its
// stuck-at-1 is never excited; under op 0 nothing blocks it.
TEST(OpBlockingScreen, ConstantLineAtTheStuckValueIsNeverExcited) {
  TinyCut c;
  const netlist::NetId n = c.nl.or_(c.op, c.a[0]);
  c.nl.output_bus("result", {c.nl.xor_(n, c.b[0])});
  expect_blocked(c.nl, {netlist::Site{n}, true}, 0b10, "OR sa1");
  expect_blocked(c.nl, {netlist::Site{n}, false}, 0b00, "OR sa0");
}

// ---- good-path table ---------------------------------------------------------

// Every operand tuple one CUT receives, in first-use order, deduplicated.
class TupleRecorder final : public sim::CpuHooks {
 public:
  explicit TupleRecorder(CutId cut) : cut_(cut) {}
  void on_alu(rtlgen::AluOp op, std::uint32_t a, std::uint32_t b) override {
    if (cut_ == CutId::kAlu) add({static_cast<std::uint32_t>(op), a, b});
  }
  void on_shift(rtlgen::ShiftOp op, std::uint32_t value,
                std::uint32_t shamt) override {
    if (cut_ == CutId::kShifter) {
      add({static_cast<std::uint32_t>(op), value, shamt});
    }
  }
  void on_mult(std::uint32_t a, std::uint32_t b) override {
    if (cut_ == CutId::kMultiplier) add({0, a, b});
  }
  const std::vector<OpTuple>& tuples() const { return tuples_; }

 private:
  void add(const OpTuple& t) {
    if (seen_.insert(t).second) tuples_.push_back(t);
  }
  CutId cut_;
  std::set<OpTuple> seen_;
  std::vector<OpTuple> tuples_;
};

// The table holds exactly the distinct tuples of the fault-free run, in
// first-use order, with their fault-free outputs; and every answer an
// injector gives from a swept table block equals a reference Evaluator
// with the fault forced, without a single off-path tuple.
TEST(GoodPathTable, HoldsTheTracedTuplesAndPrefillsExactAnswers) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 1});
  for (const CutId cut : {CutId::kAlu, CutId::kShifter, CutId::kMultiplier}) {
    const netlist::Netlist& nl = f.model.component(cut).netlist;
    const std::string name = f.model.component(cut).name;
    TupleRecorder recorder(cut);
    sim::Cpu cpu;
    cpu.reset();
    cpu.load(f.program.image);
    sim::TraceSink<TupleRecorder> sink{&recorder};
    ASSERT_TRUE(cpu.run_sink(f.program.entry, sink).halted);
    const std::vector<OpTuple>& want = recorder.tuples();

    const GoodPathTable table =
        GoodPathTable::trace(f.model, f.program, {}, cut);
    ASSERT_EQ(table.size(), want.size()) << name;
    EXPECT_EQ(table.tuples().size(), want.size()) << name;
    EXPECT_EQ(table.tuples().block_count(), (want.size() + 63) / 64) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const OpTuple& t = want[i];
      EXPECT_EQ(table.tuple(i).op, t.op) << name << " tuple " << i;
      EXPECT_EQ(table.tuple(i).a, t.a) << name << " tuple " << i;
      EXPECT_EQ(table.tuple(i).b, t.b) << name << " tuple " << i;
      EXPECT_EQ(table.find(t.op, t.a, t.b), i) << name << " tuple " << i;
      EXPECT_EQ(table.good(i), behavioural_result(cut, t))
          << name << " tuple " << i;
    }
    Rng rng(0x6a7e + static_cast<unsigned>(cut));
    std::set<OpTuple> on_path(want.begin(), want.end());
    for (int k = 0; k < 64; ++k) {
      const std::uint32_t b = rng.next32();
      const OpTuple t{want[0].op, rng.next32(),
                      cut == CutId::kShifter ? b % 32 : b};
      if (!on_path.count(t)) {
        EXPECT_EQ(table.find(t.op, t.a, t.b), GoodPathTable::kNotFound);
      }
    }

    const CutPorts ports = ports_of(nl, cut);
    std::vector<fault::Fault> faults = sampled_faults(
        session, cut, fault::FaultModel::kStuckAt, 3, 0x7ab1e);
    faults.push_back(fault::Fault{netlist::Site{(*ports.out)[3]}, true});
    // Visit the tuples in a shuffled order so blocks are swept out of
    // order and lanes are answered long after their block's sweep.
    std::vector<std::size_t> order(want.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const fault::Fault& fa : faults) {
      const std::string where = name + " " + fault::fault_name(nl, fa);
      netlist::Evaluator armed(nl);
      armed.inject_broadcast(fa.site, fa.stuck_value);
      const std::vector<std::uint64_t> faulty =
          reference_outputs(armed, ports, want);
      GateLevelFaultInjector injector(nl, session.compiled(cut), table, cut,
                                      fa);
      std::size_t mismatches = 0, corrupted = 0;
      for (const std::size_t i : order) {
        const std::optional<std::uint64_t> got =
            hook_result(injector, cut, want[i]);
        ASSERT_TRUE(got.has_value()) << where;
        mismatches += *got != faulty[i];
        corrupted += faulty[i] != table.good(i);
      }
      EXPECT_EQ(mismatches, 0u) << where;
      EXPECT_EQ(injector.corrupted_results(), corrupted) << where;
      EXPECT_EQ(injector.off_path_tuples(), 0u) << where;
    }
  }
}

// One table per (program, config, CUT), shared by every campaign on the
// session; the cache-off rebuild yields an equal table in a new handout
// and leaves the old one valid.
TEST(GoodPathTable, SessionKeepsOneTablePerProgramAndCut) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 1});
  const auto alu = session.good_path(f.program, {}, CutId::kAlu);
  EXPECT_EQ(session.good_path(f.program, {}, CutId::kAlu), alu);
  const auto mul = session.good_path(f.program, {}, CutId::kMultiplier);
  EXPECT_NE(mul, alu);
  const TestProgram chain =
      f.builder.build_standalone(chained_multiply_routine());
  const auto chain_mul = session.good_path(chain, {}, CutId::kMultiplier);
  EXPECT_NE(chain_mul, mul);
  EXPECT_EQ(chain_mul->size(), 64u);
  sim::CpuConfig no_forwarding;
  no_forwarding.forwarding = false;
  EXPECT_NE(session.good_path(f.program, no_forwarding, CutId::kAlu), alu);
  EXPECT_THROW(session.good_path(f.program, {}, CutId::kDivider),
               std::invalid_argument);

  GradingSession uncached(f.model, {.num_threads = 1, .cache = false});
  const auto first = uncached.good_path(f.program, {}, CutId::kShifter);
  const auto second = uncached.good_path(f.program, {}, CutId::kShifter);
  EXPECT_NE(first, second);
  ASSERT_EQ(first->size(), second->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(first->tuple(i).a, second->tuple(i).a);
    EXPECT_EQ(first->tuple(i).b, second->tuple(i).b);
    EXPECT_EQ(first->good(i), second->good(i));
  }
}

}  // namespace
}  // namespace sbst::core

// Hardened campaign runtime: RunOutcome taxonomy, watchdog budgets derived
// from the good run, the software-MPU store guard, fault-tolerant campaign
// execution, and the injector's per-operation rule (activation per fault
// model plus the armed-result table) against a per-operation reference
// oracle (tests for core/inject.{hpp,cpp}).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
}

TEST(CampaignOutcomes, InvalidSiteThrowsFromSingleInjection) {
  // The single-run form has no campaign wrapper to degrade into
  // kInfraError, so the validation seam surfaces as an exception.
  CampaignFixture& f = fixture();
  fault::Fault bogus;
  bogus.site.gate = 0x40000000u;
  EXPECT_THROW(run_with_injection(f.model, f.program, CutId::kAlu, bogus),
               std::out_of_range);
}

// ---- evaluation surface ----------------------------------------------------

TEST(CampaignOutcomes, EvaluateClassifiesSampledFaultsPerCut) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 2});
  EvalOptions options;
  options.regfile_cycle_cap = 32;
  options.pipeline_cycle_cap = 256;
  options.classify_outcomes = true;
  options.outcome_sample = 3;
  const ProgramEvaluation ev =
      evaluate_program(session, f.builder, f.program, options);

  OutcomeHistogram sum;
  for (CutId cut : {CutId::kAlu, CutId::kShifter, CutId::kMultiplier}) {
    const OutcomeHistogram& h = ev.cut(cut).outcomes;
    EXPECT_EQ(h.total(), options.outcome_sample);
    EXPECT_GE(h.detected(), 1u);
    for (std::size_t i = 0; i < kRunOutcomeCount; ++i) {
      sum.counts[i] += h.counts[i];
    }
  }
  EXPECT_EQ(ev.outcome_totals(), sum);
  // Non-injectable components carry no sampled campaign.
  EXPECT_EQ(ev.cut(CutId::kDivider).outcomes.total(), 0u);

  // Off by default: the histograms stay all-zero.
  EvalOptions off = options;
  off.classify_outcomes = false;
  const ProgramEvaluation plain =
      evaluate_program(session, f.builder, f.program, off);
  EXPECT_EQ(plain.outcome_totals().total(), 0u);
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

constexpr fault::FaultModel kAllModels[] = {
    fault::FaultModel::kStuckAt, fault::FaultModel::kTransition,
    fault::FaultModel::kTransientSEU, fault::FaultModel::kIntermittent};

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

class InjectionOracle : public ::testing::TestWithParam<CutId> {};

// Seeded samples of every fault model, run through the campaign (1 and 4
// threads) and through the per-operation oracle: every InjectionOutcome
// field must agree. A budget factor of 2 keeps hang runs short without
// hiding them.
TEST_P(InjectionOracle, CampaignMatchesPerOperationReference) {
  constexpr std::size_t kSample = 4;
  constexpr double kFactor = 2.0;
  CampaignFixture& f = fixture();
  const CutId cut = GetParam();
  InjectOptions inject;
  inject.budget_factor = kFactor;
  GradingSession serial(f.model, {.num_threads = 1});
  GradingSession parallel(f.model, {.num_threads = 4});
  OutcomeHistogram seen;
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
    const std::vector<InjectionOutcome> one =
        run_injection_campaign(serial, f.program, cut, faults, {}, inject);
    const std::vector<InjectionOutcome> four =
        run_injection_campaign(parallel, f.program, cut, faults, {}, inject);
    ASSERT_EQ(one.size(), faults.size());
    ASSERT_EQ(four.size(), faults.size());
    const netlist::Netlist& nl = f.model.component(cut).netlist;
    for (std::size_t k = 0; k < faults.size(); ++k) {
      const InjectionOutcome want =
          oracle_outcome(f.model, f.program, cut, faults[k], kFactor);
      const std::string where = fault::fault_name(nl, faults[k]);
      expect_same_outcome(one[k], want, where + " (1 thread)");
      expect_same_outcome(four[k], want, where + " (4 threads)");
      seen.add(want.outcome);
    }
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

// More distinct random tuples than the table holds, interleaved with
// repeats of earlier (possibly evicted or colliding) ones: every answer must
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
    Rng rng(0x5107 + static_cast<unsigned>(cut));

    // Tuples come in families that differ in one operand only: 32 values
    // of b under one (op, a), 32 values of a under one (op, b), each under
    // every op. Slot collisions inside a family are then common, and they
    // are the ones a partial tag compare would get wrong.
    std::vector<std::uint32_t> ops = {0};  // the multiplier has no op port
    if (cut == CutId::kAlu) ops = {0, 1, 2, 3, 4, 5, 6, 7};
    if (cut == CutId::kShifter) ops = {0, 2, 3};
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

        GateLevelFaultInjector injector(session, cut, fa);
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

}  // namespace
}  // namespace sbst::core

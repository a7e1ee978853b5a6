// Gate-level fault injection into program execution.
//
// Computes ALU / shifter / multiplier results through the component's
// *faulty* gate-level netlist during CPU simulation, so a stuck-at fault
// corrupts architectural state exactly as silicon would. Running the SBST
// program under injection and comparing the unloaded signature words
// against the fault-free run is the end-to-end detection check the whole
// methodology rests on (error identification via signatures, paper §3.3).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/component.hpp"
#include "fault/fault.hpp"
#include "netlist/compiled.hpp"
#include "netlist/eval.hpp"
#include "sim/cpu.hpp"

namespace sbst::core {

class GradingSession;

/// Classified ending of one faulty-machine execution, split the way an
/// on-line monitor sees it: a signature mismatch needs the test's unload
/// step, while hang / trap / wild store are symptoms the OS watchdog or MPU
/// reports without reading a single signature word.
enum class RunOutcome : std::uint8_t {
  kOkMatch = 0,         // ran to completion, signatures match (not detected)
  kDetectedMismatch,    // clean completion, signature words differ
  kDetectedHang,        // watchdog budget exhausted (instructions/cycles/stores)
  kDetectedTrap,        // illegal instruction, misaligned or bus error
  kDetectedWildStore,   // store outside the program's declared regions
  kInfraError,          // the simulation infrastructure itself failed
};

inline constexpr std::size_t kRunOutcomeCount = 6;

const char* run_outcome_name(RunOutcome outcome);

/// True for every outcome an on-line monitor counts as a detection
/// (everything but kOkMatch and kInfraError).
inline bool outcome_detected(RunOutcome outcome) {
  return outcome == RunOutcome::kDetectedMismatch ||
         outcome == RunOutcome::kDetectedHang ||
         outcome == RunOutcome::kDetectedTrap ||
         outcome == RunOutcome::kDetectedWildStore;
}

/// Per-class outcome counts for a campaign, with the signature-vs-symptom
/// coverage split.
struct OutcomeHistogram {
  std::array<std::size_t, kRunOutcomeCount> counts{};

  void add(RunOutcome outcome) {
    ++counts[static_cast<std::size_t>(outcome)];
  }
  std::size_t count(RunOutcome outcome) const {
    return counts[static_cast<std::size_t>(outcome)];
  }
  std::size_t total() const {
    std::size_t t = 0;
    for (std::size_t c : counts) t += c;
    return t;
  }
  std::size_t detected() const {
    return detected_by_signature() + detected_by_symptom();
  }
  /// Detections that require unloading + comparing signature words.
  std::size_t detected_by_signature() const {
    return count(RunOutcome::kDetectedMismatch);
  }
  /// Detections visible to the OS monitor alone (hang, trap, wild store).
  std::size_t detected_by_symptom() const {
    return count(RunOutcome::kDetectedHang) +
           count(RunOutcome::kDetectedTrap) +
           count(RunOutcome::kDetectedWildStore);
  }
  friend bool operator==(const OutcomeHistogram&,
                         const OutcomeHistogram&) = default;
};

/// Default watchdog budget factor (faulty runs get k × the good machine's
/// resources before being declared hung).
inline constexpr double kDefaultBudgetFactor = 8.0;

/// Hardened-runtime knobs for faulty-machine execution.
struct InjectOptions {
  /// Watchdog budget factor k. Unset = the session's SessionOptions::
  /// budget_factor (or kDefaultBudgetFactor in session-less forms). A value
  /// <= 0 disables the watchdog: the faulty run falls back to the legacy
  /// global 1<<24 instruction cap (a run that hits it still classifies as
  /// kDetectedHang).
  std::optional<double> budget_factor;
  /// Budget floors, so short programs are not starved by rounding.
  std::uint64_t min_instructions = 1u << 12;
  std::uint64_t min_cycles = 1u << 14;
  std::uint64_t min_stores = 64;
  /// Software-MPU store guard over the program image span (code + data +
  /// signature area). Off = wild stores land in simulated memory and
  /// classify as hang/trap/mismatch, like the legacy behaviour.
  bool store_guard = true;
  /// Campaign-level serial retries for a fault whose task threw
  /// (kInfraError). Retries are deterministic: they re-run the same fault
  /// with the same inputs, so a deterministic failure stays kInfraError.
  unsigned infra_retries = 1;
};

/// Maps a guarded run's stop verdict onto the outcome taxonomy — the single
/// classification rule shared by the injection campaign and the conformance
/// runner. `signatures_match` is consulted only for clean (kHalted)
/// endings; every budget exhaustion is kDetectedHang (a watchdog firing is
/// a detection, never an infrastructure error).
RunOutcome classify_stop(sim::StopReason stop, bool signatures_match);

/// Derives the per-run watchdog budget from the good machine's measured
/// resources: factor × good stats, clamped below by the InjectOptions
/// floors. factor <= 0 returns the legacy unlimited budget.
sim::RunBudget run_budget_for(const sim::ExecStats& good_stats, double factor,
                              const InjectOptions& options = {});

/// The software-MPU region set for `program`: its image span (code, data
/// and signature words all live inside [image.base, image.end_address())).
sim::StoreGuard store_guard_for(const struct TestProgram& program);

class GateLevelFaultInjector final : public sim::CpuHooks {
 public:
  /// Slots of each direct-mapped operand-tuple table (see TupleMemo).
  static constexpr std::size_t kMemoSlots = 4096;

  /// Supported targets: kAlu, kShifter, kMultiplier (the components whose
  /// results flow through the CpuHooks override points).
  ///
  /// All four fault models share one per-operation rule; the model only
  /// decides whether the fault is ACTIVE for the operation:
  ///  * kStuckAt — active for every operation.
  ///  * kTransition — active only when the fault-free value of the faulted
  ///    line transitions from the slow value on the previous operation to
  ///    its complement now (the launch/capture pair of the gate-level
  ///    grader, at operation granularity). The first operation has no
  ///    launch partner and is never active.
  ///  * kTransientSEU / kIntermittent — active per the fault's deterministic
  ///    activation stream (fault_active), indexed by the injector's private
  ///    operation counter — so outcomes depend only on the program and the
  ///    fault, never on scheduling.
  /// An inactive operation returns the behavioural reference result with no
  /// netlist work. An active one returns the faulty netlist's result: the
  /// force is armed on the first activation and never released, so the
  /// evaluator only ever computes the faulty function, and its answers are
  /// memoized per (op, a, b) tuple (exact: the CUTs are combinational and
  /// every input port is driven on every operation).
  GateLevelFaultInjector(const ProcessorModel& model, CutId target,
                         const fault::Fault& fault);
  /// Session form: evaluates through the session's cached compiled netlist
  /// (event-driven — one faulty operation re-simulates only its cone).
  /// Results are bitwise-identical to the reference form.
  GateLevelFaultInjector(GradingSession& session, CutId target,
                         const fault::Fault& fault);
  /// Prefetched form for campaign workers: evaluates event-driven through a
  /// caller-held compiled netlist, so parallel per-fault tasks never touch
  /// the session caches. `nl` and `compiled` must describe the same
  /// component and outlive the injector.
  GateLevelFaultInjector(const netlist::Netlist& nl,
                         const netlist::CompiledNetlist& compiled,
                         CutId target, const fault::Fault& fault);

  std::optional<std::uint32_t> alu_result(rtlgen::AluOp, std::uint32_t,
                                          std::uint32_t) override;
  std::optional<std::uint32_t> shift_result(rtlgen::ShiftOp, std::uint32_t,
                                            std::uint32_t) override;
  std::optional<std::uint64_t> mult_result(std::uint32_t,
                                           std::uint32_t) override;

  /// Number of operations whose faulty result differed from the good one.
  std::uint64_t corrupted_results() const { return corrupted_; }

 private:
  /// Direct-mapped table of one combinational function of the operand
  /// tuple. Each slot keeps its full tuple as the tag, so a hit is exact
  /// and a colliding tuple only evicts; answers never depend on history.
  class TupleMemo {
   public:
    TupleMemo() : slots_(kMemoSlots) {}
    const std::uint64_t* find(std::uint32_t op, std::uint32_t a,
                              std::uint32_t b) const {
      const Slot& s = slots_[index(op, a, b)];
      return s.tag == op + 1 && s.a == a && s.b == b ? &s.value : nullptr;
    }
    void store(std::uint32_t op, std::uint32_t a, std::uint32_t b,
               std::uint64_t value) {
      slots_[index(op, a, b)] = Slot{a, b, op + 1, value};
    }

   private:
    struct Slot {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
      std::uint32_t tag = 0;  // op + 1; 0 = empty
      std::uint64_t value = 0;
    };
    static std::size_t index(std::uint32_t op, std::uint32_t a,
                             std::uint32_t b) {
      const std::uint64_t k = ((std::uint64_t{a} << 32) | b) ^
                              (std::uint64_t{op} << 59);
      return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ull) >> 52);
    }
    std::vector<Slot> slots_;
  };
  static_assert(kMemoSlots == std::size_t{1} << 12,
                "TupleMemo::index yields 12 bits");

  /// Transition only: the faulted line's fault-free value per tuple, from
  /// an un-faulted reference evaluator (compiled evaluators cannot provide
  /// it — optimization passes may fuse the line away).
  struct LineProbe {
    LineProbe(const netlist::Netlist& nl, netlist::NetId net)
        : eval(nl), line(net) {}
    netlist::Evaluator eval;
    netlist::NetId line;
    TupleMemo memo;
  };

  void init(const fault::Fault& fault);
  /// The shared per-operation rule: `good` is the behavioural reference
  /// result the hook already computed.
  std::uint64_t resolve(std::uint32_t op, std::uint32_t a, std::uint32_t b,
                        std::uint64_t good);
  bool active(std::uint32_t op, std::uint32_t a, std::uint32_t b);
  /// Drives every input port with the tuple and evaluates.
  template <class Eval>
  void drive_and_eval(Eval& ev, std::uint32_t op, std::uint32_t a,
                      std::uint32_t b) const;
  std::uint64_t faulty_result(std::uint32_t op, std::uint32_t a,
                              std::uint32_t b);

  CutId target_;
  const netlist::Netlist* nl_;
  std::unique_ptr<netlist::Evaluator> ref_eval_;
  std::unique_ptr<netlist::CompiledEvaluator> comp_eval_;
  fault::Fault fault_;
  // Port buses, resolved once. port_b_ is "b" or "shamt"; port_op_ is null
  // for the multiplier, which has no op port.
  const netlist::Bus* port_a_ = nullptr;
  const netlist::Bus* port_b_ = nullptr;
  const netlist::Bus* port_op_ = nullptr;
  const netlist::Bus* port_out_ = nullptr;
  std::uint64_t stream_key_ = 0;  // fault_stream_key(fault_)
  std::uint64_t op_index_ = 0;    // operations seen through the hooks
  bool armed_ = false;            // force injected into the evaluator
  bool prev_line_sv_ = false;     // transition: previous op's line == sv
  TupleMemo results_;             // faulty results of active operations
  std::unique_ptr<LineProbe> line_;
  std::uint64_t corrupted_ = 0;
};

/// Result of one faulty-machine execution of a test program: the guarded
/// run's classified ending, stats and signature words, next to the
/// fault-free signatures they were compared against. The fault-free run
/// happens once per call in the model form, once per (program, config) in
/// the session and campaign forms.
struct InjectionOutcome {
  bool detected = false;
  RunOutcome outcome = RunOutcome::kOkMatch;
  /// Raw stop verdict of the guarded faulty run (which watchdog fired,
  /// etc.). kHalted for kOkMatch/kDetectedMismatch.
  sim::StopReason stop = sim::StopReason::kHalted;
  std::uint64_t corrupted_results = 0;
  /// Faulty-run resource stats, complete up to the stopping point even for
  /// traps and wild stores (detection-latency accounting).
  sim::ExecStats faulty_stats;
  std::vector<std::uint32_t> good_signatures;
  std::vector<std::uint32_t> faulty_signatures;
};

/// Tallies the outcome classes of a campaign result.
OutcomeHistogram histogram_of(const std::vector<InjectionOutcome>& outcomes);

InjectionOutcome run_with_injection(const ProcessorModel& model,
                                    const struct TestProgram& program,
                                    CutId target, const fault::Fault& fault,
                                    const sim::CpuConfig& config = {},
                                    const InjectOptions& inject = {});

/// Session form: amortizes the target's netlist compilation, the predecoded
/// program image and the fault-free reference run across many injection
/// calls (the good machine runs once per (program, config), not once per
/// fault). Identical outcomes to the model form.
InjectionOutcome run_with_injection(GradingSession& session,
                                    const struct TestProgram& program,
                                    CutId target, const fault::Fault& fault,
                                    const sim::CpuConfig& config = {},
                                    const InjectOptions& inject = {});

/// Multi-fault injection campaign: one fault-free reference run plus one
/// faulty run per fault, the faulty runs scheduled as independent tasks on
/// the session pool. Outcomes are returned in fault order and are
/// bitwise-identical to calling run_with_injection per fault, for any
/// thread count. A fault whose task throws is retried serially
/// (InjectOptions::infra_retries) and, if it keeps failing, marked
/// kInfraError — the rest of the campaign always completes.
std::vector<InjectionOutcome> run_injection_campaign(
    GradingSession& session, const struct TestProgram& program, CutId target,
    const std::vector<fault::Fault>& faults, const sim::CpuConfig& config = {},
    const InjectOptions& inject = {});

/// Session-less campaign: serial faulty runs, but still only ONE fault-free
/// reference run for the whole fault list. Same retry/infra_error policy as
/// the session form.
std::vector<InjectionOutcome> run_injection_campaign(
    const ProcessorModel& model, const struct TestProgram& program,
    CutId target, const std::vector<fault::Fault>& faults,
    const sim::CpuConfig& config = {}, const InjectOptions& inject = {});

}  // namespace sbst::core

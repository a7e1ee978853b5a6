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
#include "fault/pattern.hpp"
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
};

/// Campaign-level serial retries for a fault whose task threw
/// (kInfraError). Retries are deterministic: they re-run the same fault with
/// the same inputs, so a deterministic failure stays kInfraError.
inline constexpr unsigned kInfraRetries = 1;

/// Maps a guarded run's stop verdict onto the outcome taxonomy — the single
/// classification rule shared by the injection campaign and the conformance
/// runner. `signatures_match` is consulted only for clean (kHalted)
/// endings; every budget exhaustion is kDetectedHang (a watchdog firing is
/// a detection, never an infrastructure error).
RunOutcome classify_stop(sim::StopReason stop, bool signatures_match);

/// Derives the per-run watchdog budget from the good machine's measured
/// resources: factor × good stats, clamped below by the InjectOptions
/// floors and saturating at the uint64_t maximum. factor <= 0 or NaN
/// returns the legacy unlimited budget.
sim::RunBudget run_budget_for(const sim::ExecStats& good_stats, double factor,
                              const InjectOptions& options = {});

/// The software-MPU region set for `program`: its image span (code, data
/// and signature words all live inside [image.base, image.end_address())).
sim::StoreGuard store_guard_for(const struct TestProgram& program);

/// The good path of one injectable CUT under one test program: the distinct
/// (op, a, b) tuples the fault-free run applies to it, in first-use order,
/// with the fault-free output of each, every net's fault-free value per
/// 64-tuple block (a campaign injector's excitation test), every net's
/// constant per op value (its op-blocking screen) and a tuple -> index
/// lookup. The tuples stay in the TraceCollector's PatternSet —
/// 64-lane blocks in netlist input order — so a campaign injector answers 64
/// of them per netlist sweep. Immutable once built; campaign workers share one
/// read-only (GradingSession::good_path caches it per program and CUT).
class GoodPathTable {
 public:
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  struct Tuple {
    std::uint32_t op = 0;  // 0 for the multiplier, which has no op port
    std::uint32_t a = 0;
    std::uint32_t b = 0;   // the shifter's shamt
  };

  /// Runs `program` fault-free under `config` with a TraceCollector and
  /// tabulates the tuples it applied to `target`.
  static GoodPathTable trace(const ProcessorModel& model,
                             const struct TestProgram& program,
                             const sim::CpuConfig& config, CutId target);
  /// Tabulates `tuples`, distinct patterns over the input ports of
  /// `target`'s netlist `nl`: decodes every tuple and evaluates every block
  /// fault-free on the reference Evaluator, keeping every net's value; then
  /// runs the three-valued pass once per op value.
  GoodPathTable(const netlist::Netlist& nl, CutId target,
                fault::PatternSet tuples);

  std::size_t size() const { return tuple_.size(); }
  const fault::PatternSet& tuples() const { return tuples_; }
  const Tuple& tuple(std::size_t i) const { return tuple_[i]; }
  /// Fault-free output bus of tuple `i`.
  std::uint64_t good(std::size_t i) const { return good_[i]; }
  /// Fault-free value of `net` in the 64 lanes of block `block` (lane k
  /// holds tuple 64 * block + k).
  std::uint64_t net_word(std::size_t block, netlist::NetId net) const {
    return nets_[block * net_count_ + net];
  }
  /// Mask of the CUT's op values (bit v = op value v); 0 for the
  /// multiplier, which has no op port.
  std::uint32_t all_ops() const { return all_ops_; }
  /// Op values under which `net` holds `value` fault-free for every operand
  /// pair: bit v is set when a three-valued pass with the op port fixed to v
  /// and every other input X gives `net` that constant.
  std::uint32_t constant_ops(netlist::NetId net, bool value) const {
    return constant_ops_[2 * net + value];
  }
  /// Index of the tuple, or kNotFound when the good run never applied it.
  std::size_t find(std::uint32_t op, std::uint32_t a, std::uint32_t b) const {
    for (std::size_t s = hash(op, a, b) & mask_;; s = (s + 1) & mask_) {
      const std::uint32_t slot = slots_[s];
      if (slot == 0) return kNotFound;
      const Tuple& t = tuple_[slot - 1];
      if (t.op == op && t.a == a && t.b == b) return slot - 1;
    }
  }

 private:
  static std::size_t hash(std::uint32_t op, std::uint32_t a,
                          std::uint32_t b) {
    const std::uint64_t k = ((std::uint64_t{a} << 32) | b) ^
                            (std::uint64_t{op} << 59);
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ull) >> 32);
  }

  fault::PatternSet tuples_;
  std::vector<Tuple> tuple_;
  std::vector<std::uint64_t> good_;
  std::size_t net_count_ = 0;
  std::vector<std::uint64_t> nets_;  // every net's word, block-major
  std::uint32_t all_ops_ = 0;
  std::vector<std::uint32_t> constant_ops_;  // per net: ops at 0, ops at 1
  // Open addressing at load <= 1/2: tuple index + 1 per slot, 0 = empty.
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};

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
  /// force is armed on the first forced evaluation and never released, so
  /// the evaluator only ever computes the faulty function, and its answers
  /// are memoized per (op, a, b) tuple (exact: the CUTs are combinational
  /// and every input port is driven on every operation).
  ///
  /// Reference form: evaluates through the model's reference Evaluator,
  /// one tuple per evaluation (the oracle path).
  GateLevelFaultInjector(const ProcessorModel& model, CutId target,
                         const fault::Fault& fault);
  /// Campaign form: evaluates through a caller-held compiled netlist and
  /// good-path table, so parallel per-fault tasks never touch the session
  /// caches. `nl`, `compiled` and `good_path` must describe the same
  /// component and outlive the injector. At construction the op-blocking
  /// screen marks every op value under which the fault cannot change the
  /// result bus for any operands: the faulted line is constant at the stuck
  /// value, or every path from the site meets a gate whose side input,
  /// itself outside the fault's forward closure, holds the controlling
  /// constant (the table's three-valued op constants). An active operation
  /// with a blocked op returns the good result with no netlist work. Before
  /// any forced evaluation the fault is screened for excitation: a tuple
  /// whose fault site already holds the stuck value fault-free is answered
  /// with the good result. An active tuple of the fault-free run is
  /// answered from one forced sweep
  /// of its 64-tuple block, done on first use and skipped when no lane of
  /// the block excites the fault (the table holds the site's fault-free
  /// values); only excited off-path tuples are swept one at a time, after a
  /// fault-free evaluation of the site's fanin cone. Every forced
  /// evaluation is a level-major sweep: the whole stimulus changes between
  /// two of them. Results are bitwise-identical to the reference form.
  GateLevelFaultInjector(const netlist::Netlist& nl,
                         const netlist::CompiledNetlist& compiled,
                         const GoodPathTable& good_path, CutId target,
                         const fault::Fault& fault);

  std::optional<std::uint32_t> alu_result(rtlgen::AluOp, std::uint32_t,
                                          std::uint32_t) override;
  std::optional<std::uint32_t> shift_result(rtlgen::ShiftOp, std::uint32_t,
                                            std::uint32_t) override;
  std::optional<std::uint64_t> mult_result(std::uint32_t,
                                           std::uint32_t) override;

  /// Number of operations whose faulty result differed from the good one.
  std::uint64_t corrupted_results() const { return corrupted_; }
  /// Number of active tuples that were neither on the good path nor already
  /// memoized: the off-path tuples the injector answered, screened or
  /// evaluated.
  std::uint64_t off_path_tuples() const { return off_path_tuples_; }
  /// Number of single-tuple forced netlist evaluations: the off-path tuples
  /// that excite the fault (every one of them in the reference form).
  std::uint64_t off_path_evals() const { return off_path_evals_; }
  /// The op values the op-blocking screen answers with the good result (bit
  /// v = op value v); always 0 in the reference form and for the multiplier.
  std::uint32_t blocked_ops() const { return blocked_; }
  /// Number of active operations the op-blocking screen answered.
  std::uint64_t op_blocked() const { return op_blocked_; }

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

  /// The fanin cone of the fault site's net over the original netlist,
  /// evaluated fault-free on a reference Evaluator. Forcing a net to the
  /// value it already holds changes no value in a combinational CUT, so a
  /// tuple whose site holds the stuck value does not excite the fault. The
  /// compiled netlist cannot answer this: its passes may fuse the net away.
  struct SiteCone {
    SiteCone(const netlist::Netlist& nl, netlist::NetId site_net);
    netlist::Evaluator eval;
    std::vector<netlist::NetId> gates;  // the cone, inputs included, in a
                                        // topological order
  };

  void init(const fault::Fault& fault);
  /// The op values under which the fault never changes `port_out_`.
  std::uint32_t screen_ops() const;
  /// The shared per-operation rule: `good` is the behavioural reference
  /// result the hook already computed.
  std::uint64_t resolve(std::uint32_t op, std::uint32_t a, std::uint32_t b,
                        std::uint64_t good);
  bool active(std::uint32_t op, std::uint32_t a, std::uint32_t b);
  /// Drives every input port with the tuple.
  template <class Eval>
  void drive(Eval& ev, std::uint32_t op, std::uint32_t a,
             std::uint32_t b) const;
  /// The site's fault-free value for one tuple, from its cone (built on
  /// first use; transition: memoized).
  bool site_value(std::uint32_t op, std::uint32_t a, std::uint32_t b);
  /// Lanes of the site word `site` in which the fault is excited.
  std::uint64_t excited(std::uint64_t site) const {
    return fault_.stuck_value ? ~site : site;
  }
  /// Forces the fault in every lane of `ev`, once.
  template <class Eval>
  void arm(Eval& ev);
  std::uint64_t faulty_result(std::uint32_t op, std::uint32_t a,
                              std::uint32_t b, std::uint64_t good);
  /// Faulty result of good-path tuple `i`, sweeping its block if needed.
  std::uint64_t good_path_result(std::size_t i);

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
  // The fault site's net: the gate output, or the driver of the faulted pin.
  netlist::NetId site_net_ = netlist::kNoNet;
  std::uint64_t stream_key_ = 0;  // fault_stream_key(fault_)
  std::uint64_t op_index_ = 0;    // operations seen through the hooks
  bool armed_ = false;            // force injected into the evaluator
  bool prev_line_sv_ = false;     // transition: previous op's line == sv
  const GoodPathTable* good_path_ = nullptr;  // null in the reference form
  std::uint32_t blocked_ = 0;     // screen_ops(), fixed at construction
  std::vector<std::uint64_t> diff_;   // faulty ^ good per good-path tuple
  std::vector<std::uint8_t> swept_;   // per good-path block: diff_ filled
  TupleMemo results_;             // faulty results of off-path tuples
  std::unique_ptr<SiteCone> site_;
  std::optional<TupleMemo> line_memo_;  // transition: site value per tuple
  std::uint64_t corrupted_ = 0;
  std::uint64_t off_path_tuples_ = 0;
  std::uint64_t off_path_evals_ = 0;
  std::uint64_t op_blocked_ = 0;
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
/// (kInfraRetries times) and, if it keeps failing, marked
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

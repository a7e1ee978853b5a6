// Coverage evaluation: runs the SBST program on the CPU model, captures the
// pattern stream each component actually receives (via the tracing hooks),
// and fault-grades every component's gate-level netlist against it — the
// in-simulation equivalent of the paper's FlexTest runs.
//
// Observability follows the architecture: a component output counts as an
// observation point only if a self-test routine can propagate it (e.g. the
// ALU's internal carry-out is not a MIPS-visible flag; the memory
// controller's MAR is A-VC and excluded from the periodic test).
//
// Evaluation is structured as a task graph over a GradingSession: a serial
// traced run, then one flattened GradingPlan on the session pool — every
// CUT's table or trace preparation as one batch, then every CUT's
// fault-chunk tasks interleaved as the next (cross-CUT parallelism without
// oversubscription) — then the standalone routine executions as a last
// task batch. Results are bitwise-identical for every engine, thread count,
// and cache setting.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/program.hpp"
#include "core/session.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "sim/cpu.hpp"

namespace sbst::core {

/// Packed dedup key for trace streams. Every hook packs its operands
/// injectively into 128 bits, and equality is exact (the hash only buckets),
/// so dedup semantics match the ordered-set-of-tuples this replaces — same
/// first-occurrence acceptance, hence identical PatternSets — without the
/// per-insert allocations and pointer chasing of a red-black tree.
struct TraceKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool operator==(const TraceKey& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

struct TraceKeyHash {
  std::size_t operator()(const TraceKey& k) const {
    // splitmix64 finalizer — full avalanche so unordered_set buckets stay
    // balanced even for low-entropy packings (opcode/funct pairs).
    auto mix = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return x ^ (x >> 31);
    };
    return static_cast<std::size_t>(mix(k.lo ^ mix(k.hi)));
  }
};

using TraceKeySet = std::unordered_set<TraceKey, TraceKeyHash>;

/// Captures per-component stimulus from a program execution.
class TraceCollector final : public sim::CpuHooks {
 public:
  explicit TraceCollector(const ProcessorModel& model);

  /// Restrict register-file capture to [begin, end) instruction addresses
  /// (the register-file routine section): every instruction exercises the
  /// register file, and grading tens of thousands of cycles against a 22k
  /// fault list is needlessly slow.
  void restrict_regfile(std::uint32_t begin_addr, std::uint32_t end_addr) {
    rf_begin_ = begin_addr;
    rf_end_ = end_addr;
  }
  /// Hard caps (cycles / unique patterns) as a second safety net.
  void set_regfile_cycle_cap(std::size_t cap) { rf_cap_ = cap; }
  void set_pipeline_cycle_cap(std::size_t cap) { pipe_cap_ = cap; }

  // CpuHooks:
  void on_instruction_start(std::uint32_t pc) override { pc_ = pc; }
  void on_alu(rtlgen::AluOp, std::uint32_t, std::uint32_t) override;
  void on_shift(rtlgen::ShiftOp, std::uint32_t, std::uint32_t) override;
  void on_mult(std::uint32_t, std::uint32_t) override;
  void on_div(std::uint32_t, std::uint32_t) override;
  void on_regfile(std::uint8_t, std::uint32_t, bool, std::uint8_t,
                  std::uint8_t) override;
  void on_mem(std::uint32_t, std::uint32_t, rtlgen::MemSize, bool, bool,
              std::uint32_t) override;
  void on_control(std::uint8_t, std::uint8_t) override;
  void on_forward(std::uint8_t, std::uint8_t, std::uint8_t, bool,
                  std::uint8_t, bool) override;
  void on_branch_flush() override;
  void on_branch_target(std::uint32_t, std::uint32_t) override;

  // Captured stimuli (deduplicated for the combinational components).
  const fault::PatternSet& alu_patterns() const { return alu_; }
  const fault::PatternSet& shifter_patterns() const { return shifter_; }
  const fault::PatternSet& multiplier_patterns() const { return mul_; }
  const fault::PatternSet& control_patterns() const { return control_; }
  const fault::PatternSet& forwarding_patterns() const { return fwd_; }
  const fault::PatternSet& branch_adder_patterns() const { return badd_; }
  const fault::SeqStimulus& divider_stimulus() const { return div_; }
  const fault::SeqStimulus& regfile_stimulus() const { return rf_; }
  const fault::SeqStimulus& memctrl_stimulus() const { return mem_; }
  const fault::SeqStimulus& pipeline_stimulus() const { return pipe_; }

  /// The stimulus captured for `id`: its pattern set for a combinational
  /// CUT, its clocked stimulus for a sequential one (the other stays null).
  struct Stimulus {
    const fault::PatternSet* patterns = nullptr;
    const fault::SeqStimulus* clocked = nullptr;
  };
  Stimulus stimulus(CutId id) const;

 private:
  static bool fresh(TraceKeySet& seen, const TraceKey& key) {
    return seen.insert(key).second;
  }

  std::uint32_t pc_ = 0;
  std::uint32_t rf_begin_ = 0, rf_end_ = ~0u;
  std::size_t rf_cap_ = 40000, pipe_cap_ = 4096;

  fault::PatternSet alu_, shifter_, mul_, control_, fwd_, badd_;
  fault::SeqStimulus div_, rf_, mem_, pipe_;

  TraceKeySet alu_seen_, shift_seen_, mul_seen_, control_seen_, fwd_seen_,
      badd_seen_;
};

struct EvalOptions {
  /// Observe only architecturally propagatable outputs (paper-faithful).
  bool architectural_observability = true;
  /// Include the A-VC MAR outputs as observation points (ablation: what the
  /// paper deliberately leaves untested in periodic mode).
  bool observe_address_outputs = false;
  /// Fault-simulation options (evaluation engine, thread count, lane
  /// packing). Results are bitwise-identical for every engine and thread
  /// count. When evaluating through a GradingSession, the session's pool is
  /// used and `sim.num_threads` / `sim.pool` are ignored.
  fault::SimOptions sim{};
  sim::CpuConfig cpu{};
  std::uint64_t max_instructions = 1u << 22;
  /// Trace caps forwarded to TraceCollector (defaults preserve the
  /// long-standing behavior; tests shrink them to keep differential matrices
  /// fast).
  std::size_t regfile_cycle_cap = 40000;
  std::size_t pipeline_cycle_cap = 4096;
  /// Fault models to grade each component under: one CutCoverage row per
  /// (component, model) pair, every model graded against the SAME captured
  /// trace. The default — stuck-at only — reproduces the legacy single-model
  /// evaluation exactly. Transition faults are combinational-only, so the
  /// sequential CUTs (divider, register file, memory controller, pipeline)
  /// get no transition row. Empty behaves as {kStuckAt}.
  std::vector<fault::FaultModel> fault_models = {fault::FaultModel::kStuckAt};
};

/// The observe-set cache mode EvalOptions' observability flags select.
ObserveMode observe_mode(const EvalOptions& options);

struct CutCoverage {
  CutId id;
  /// The fault model this row was graded under (EvalOptions::fault_models).
  fault::FaultModel model = fault::FaultModel::kStuckAt;
  fault::CoverageResult coverage;
  std::size_t collapsed_faults = 0;
  std::size_t uncollapsed_faults = 0;
  std::size_t stimulus_size = 0;  // patterns or cycles
};

struct RoutineStats {
  std::string name;
  std::string style;
  std::size_t size_words = 0;
  sim::ExecStats exec;  // standalone execution of just this routine
};

/// Wall-clock seconds per evaluation stage (bench/table1 reporting).
struct EvalStageTimes {
  double trace = 0;       // combined traced run + signature readback
  double collapse = 0;    // fault-universe builds (collapsing)
  double compile = 0;     // netlist compile + observe sets + cone marking
  double grade = 0;       // fault grading of every CUT: the plan's two pool
                          // batches, table/trace preparation then chunks
  double standalone = 0;  // standalone per-routine builds + executions
};

struct ProgramEvaluation {
  std::vector<CutCoverage> cuts;
  std::vector<RoutineStats> routines;
  sim::ExecStats total;                  // combined program execution
  std::vector<std::uint32_t> signatures; // fault-free signature words
  EvalStageTimes stages;

  const CutCoverage& cut(CutId id) const;
  /// The (component, model) row; throws if that model was not graded.
  const CutCoverage& cut(CutId id, fault::FaultModel model) const;
  /// Overall processor fault coverage: detected / total over all graded
  /// (component, model) rows.
  double overall_fc() const;
  /// Contribution of a CUT's undetected faults to the missing overall
  /// coverage (the paper's "Miss. FC" column).
  double missing_fc(CutId id) const;
};

/// Runs `program` once on the CPU model with `trace` capturing every CUT's
/// stimulus exactly as evaluate_program grades it (register-file capture
/// restricted to the register-file routine's section, EvalOptions' cycle
/// caps). Returns an evaluation holding only the run's `total` and
/// `signatures`; throws std::runtime_error if the program does not halt.
ProgramEvaluation trace_program(GradingSession& session,
                                const TestProgram& program,
                                const EvalOptions& options,
                                TraceCollector& trace);

/// Full evaluation through a GradingSession: runs the combined program with
/// tracing, grades every component as one flattened chunk-task batch on the
/// session pool (reusing the session's cached universes, compiled netlists,
/// observe sets, and cones), and runs each routine standalone for its
/// Table-1 row. Repeated calls on one session skip the artifact rebuilds.
ProgramEvaluation evaluate_program(GradingSession& session,
                                   const TestProgramBuilder& builder,
                                   const TestProgram& program,
                                   const EvalOptions& options = {});

/// Convenience overload: one-shot session (no artifact reuse), pool sized
/// from options.sim.num_threads. Results are identical to the session form.
ProgramEvaluation evaluate_program(const ProcessorModel& model,
                                   const TestProgramBuilder& builder,
                                   const TestProgram& program,
                                   const EvalOptions& options = {});

/// Observation points for a component under the given options.
fault::ObserveSet observation_points(const ComponentInfo& info,
                                     const EvalOptions& options);

}  // namespace sbst::core

// Parallel fault simulation: a fault-partitioned thread pool over the
// grading kernels in sim_detail.hpp.
//
// Both front doors grade the same contract as sim.hpp and are cross-checked
// against the simulate_serial oracles (combinational and clocked) by the
// differential tests in tests/test_fault_parallel.cpp, tests/test_cpt.cpp
// and tests/test_seq_cone.cpp:
//
//  * simulate_comb_parallel: combinational grading. With
//    SimOptions::lane_parallel (the default) every worker runs
//    critical-path tracing over its fault slice (grade_cpt): the
//    evaluator's bit-lanes carry 64-pattern blocks, and one event-driven
//    flip per fanout-free-region head grades every fault of that region.
//    Without it, stuck-at, SEU and intermittent slices run block PPSFP
//    (grade_blocks); transition faults always run critical-path tracing.
//  * simulate_seq_parallel: sequential grading; workers run the lane-packed
//    grade_seq over disjoint fault slices, each lane batch sweeping only its
//    live fault cone against one shared fault-free trace.
//
// Each chunk task grades one fault slice on one evaluator. grade_seq drops
// detected faults and repacks the survivors into fewer lane batches every
// kRepackSegment cycles, and grade_cpt stops flipping a head once its
// region has no live fault, but only ever within their own chunk.
//
// simulate_comb and simulate_seq (sim.hpp) are these front doors on one
// thread, simulate_comb with the block schedule.
//
// Both compose with the evaluation engines in engine.hpp: with the event
// engine the netlist is compiled once and every worker runs its own
// CompiledEvaluator over the shared immutable program. SimOptions can lend
// in externally owned artifacts — a persistent ThreadPool, a pre-compiled
// netlist, a reach prefilter — so a long-lived caller (core::GradingSession)
// pays for pool startup, compilation, and cone marking once instead of per
// call.
//
// GradingPlan decomposes gradings into chunk tasks without running them, so
// a scheduler can interleave chunks from MANY gradings (different CUTs) plus
// arbitrary extra tasks on one pool — cross-CUT parallelism with the
// intra-CUT fault partitioning flattened into the same work queue, which is
// what keeps the pool busy without ever oversubscribing. The per-CUT
// preparation (critical-path tables, fault-free sequential traces) runs on
// the same pool as a batch of its own, just before the chunks.
//
// Determinism: a fault's detection flag depends only on that fault, the
// netlist, and the stimulus — never on which lane, batch, segment, thread,
// or engine graded it, nor on which faults shared its batch or were dropped
// beside it — and workers write disjoint slices of one shared flag vector.
// Chunk boundaries are a function of the EngineContext alone (never of the
// thread count). Results are therefore bitwise-identical for every thread
// count, including 1, every lane width, and every engine.
#pragma once

#include <deque>
#include <functional>

#include "fault/engine.hpp"
#include "fault/sim.hpp"
#include "fault/sim_detail.hpp"
#include "fault/thread_pool.hpp"

namespace sbst::fault {

struct SimOptions {
  /// Worker threads (including the calling thread). 0 = auto: SBST_THREADS
  /// env var if set, else std::thread::hardware_concurrency(). Ignored when
  /// `pool` is set.
  unsigned num_threads = 0;
  /// Combinational kernel: critical-path tracing (grade_cpt) when set, else
  /// block PPSFP (grade_blocks) for stuck-at, SEU and intermittent faults;
  /// transition faults always take critical-path tracing. Detection flags
  /// are identical either way.
  bool lane_parallel = true;
  /// Evaluation engine (detection flags are identical for either choice):
  /// the event-driven compiled engine unless a test asks for the oracle.
  Engine engine = Engine::kEvent;
  /// Lane-block width in 64-bit words for the event engine: 4 packs 255
  /// faults + the good machine per lane-parallel eval(). 0 = 4 (see
  /// resolve_lanes). Detection flags are identical for every width; the
  /// reference engine ignores it.
  unsigned lanes = 0;
  /// Netlist-compile optimization passes (const prop, inverter fusion, dead
  /// sweep) when no pre-compiled netlist is lent in: 0 = off, 1 and -1 (the
  /// default) = on. Ignored when `compiled` is set.
  int netlist_opt = -1;
  /// Externally owned worker pool; when set, grading runs on it instead of
  /// constructing a per-call pool. Must not currently be executing a
  /// batch (the pool is not reentrant).
  ThreadPool* pool = nullptr;
  /// Pre-compiled netlist for the event engine; must be compiled from
  /// the netlist being graded. nullptr = compile per call.
  const netlist::CompiledNetlist* compiled = nullptr;
  /// Precomputed fanin-cone prefilter matching the observe set, indexed per
  /// gate. nullptr = compute per call (event engine only).
  const std::uint8_t* reach = nullptr;
  /// Persistent artifact store probed (and written back) when no
  /// pre-compiled netlist is lent in; detection flags are identical with it
  /// set or not. nullptr = compile from scratch per call.
  store::ArtifactStore* store = nullptr;
};

/// Deferred fault-grading work: each add_*() call initializes its
/// CoverageResult (total + zeroed flags), registers the preparation its
/// kernel needs and appends chunk tasks that grade disjoint fault slices
/// into it. Tasks from different gradings are independent (disjoint flag
/// slices, private evaluators over shared immutable contexts) and may
/// execute in any order or concurrently.
///
/// Lifetime: every EngineContext, fault list, stimulus, and CoverageResult
/// passed in must outlive run(). Callers recount() each CoverageResult after
/// run() — the flags are the single source of truth.
class GradingPlan {
 public:
  /// Combinational grading of `faults` against `patterns` (critical-path
  /// tracing, or block PPSFP without `lane_parallel`). Critical-path
  /// gradings need a good baseline and region tables, one set per
  /// (ctx, patterns) pair shared by the gradings of several fault models of
  /// one CUT; this only registers the pair, and run() builds the tables on
  /// the pool.
  void add_comb(const EngineContext& ctx, const std::vector<Fault>& faults,
                const PatternSet& patterns, bool lane_parallel,
                CoverageResult& out);

  /// Sequential grading of `faults` against the clocked `stimulus`. The
  /// fault-free trace the cone-restricted kernel reads is registered once
  /// per (ctx, stimulus) pair, shared like the critical-path tables, and
  /// recorded by run() on the pool.
  void add_seq(const EngineContext& ctx, const std::vector<Fault>& faults,
               const SeqStimulus& stimulus, CoverageResult& out);

  /// Arbitrary extra task scheduled alongside the grading chunks (e.g. a
  /// standalone routine execution). Must only touch state disjoint from
  /// every other task's.
  void add_task(std::function<void()> task) {
    tasks_.push_back(std::move(task));
  }

  std::size_t size() const { return tasks_.size(); }

  /// Executes the plan on `pool` (inline for a pool of size 1) in two
  /// batches, then clears it: first one task per registered (ctx, patterns)
  /// or (ctx, stimulus) pair builds its tables or trace, then every queued
  /// task runs. Blocks until all tasks are done. A throwing task does not
  /// stop its batch; the lowest-index captured exception is rethrown after
  /// every task has run. A failed preparation is rethrown before any queued
  /// task runs, since their gradings would read its tables.
  void run(ThreadPool& pool);

  /// Like run() but returns captured failures of the queued tasks (indexed
  /// in add order) instead of rethrowing, so campaign layers can degrade
  /// individual faults to infra_error while the rest of the batch stands.
  /// A failed preparation still throws.
  std::vector<ThreadPool::TaskFailure> run_capture(ThreadPool& pool);

 private:
  struct CptEntry {
    const EngineContext* ctx;
    const PatternSet* patterns;
    detail::CptTables tables;  // built by run()
  };
  struct SeqEntry {
    const EngineContext* ctx;
    const SeqStimulus* stimulus;
    detail::SeqTrace trace;  // built by run()
  };

  /// The entry of (ctx, patterns), registered on first use and shared by
  /// every later grading of the same pair (one per fault model).
  CptEntry& cpt_entry(const EngineContext& ctx, const PatternSet& patterns);
  /// The entry of (ctx, stimulus), likewise.
  SeqEntry& seq_entry(const EngineContext& ctx, const SeqStimulus& stimulus);

  std::vector<std::function<void()>> tasks_;
  // deques keep the references captured by queued tasks stable.
  std::deque<CptEntry> cpt_storage_;
  std::deque<SeqEntry> seq_storage_;
};

CoverageResult simulate_comb_parallel(const netlist::Netlist& nl,
                                      const std::vector<Fault>& faults,
                                      const PatternSet& patterns,
                                      const ObserveSet& observe = {},
                                      const SimOptions& options = {});

CoverageResult simulate_seq_parallel(const netlist::Netlist& nl,
                                     const std::vector<Fault>& faults,
                                     const SeqStimulus& stimulus,
                                     const ObserveSet& observe = {},
                                     const SimOptions& options = {});

}  // namespace sbst::fault

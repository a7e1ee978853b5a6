// Grading sessions: one cache of fault-grading artifacts per model, plus one
// persistent worker pool.
//
// Every fault grading of a component needs the same derived artifacts: the
// collapsed fault universe, the compiled netlist, the observe set for the
// requested observability mode and the observe-cone reach prefilter. Every
// injection campaign needs the program's predecoded image, its fault-free
// run and the target CUT's good-path table. A GradingSession builds each
// artifact lazily on first use and keeps it, and one pool lives for the
// session's lifetime and schedules whole-CUT gradings as interleaved chunk
// tasks (see fault::GradingPlan).
//
// All artifacts share one cache keyed by (kind, key bytes). The key bytes
// are the ones the persistent store files the artifact under:
// ArtifactKey::bytes() for component artifacts, the full program image plus
// the run parameters for program artifacts. So memory and disk can never
// disagree about an artifact's identity. Every accessor takes the same
// fetch path: memory hit, else store probe, else build, then write back.
// Observe sets, cones, good-path tables and the default program have no
// codec and stay in memory.
//
// Caching never changes results: artifacts are pure functions of their
// keys, so ProgramEvaluation output is bitwise-identical with the cache on
// or off (enforced by tests/test_session.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/program.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/thread_pool.hpp"
#include "netlist/compiled.hpp"
#include "sim/cpu.hpp"
#include "store/artifact_store.hpp"

namespace sbst::core {

class GoodPathTable;

/// The observability axes of EvalOptions that change observe sets (and
/// therefore reach cones); each mode gets its own cache slot.
enum class ObserveMode : std::uint8_t {
  kArchitectural = 0,             // paper-faithful propagatable outputs
  kArchitecturalPlusAddress = 1,  // + the A-VC MAR outputs (ablation)
  kFullNetlist = 2,               // every declared output net
};
inline constexpr std::size_t kObserveModes = 3;

/// Observation points for a component under a mode (the paper's
/// architectural-observability rules live here).
fault::ObserveSet observation_points(const ComponentInfo& info,
                                     ObserveMode mode);

struct SessionOptions {
  /// Worker threads for the session pool (including the calling thread).
  /// 0 = auto: SBST_THREADS env var, else hardware concurrency.
  unsigned num_threads = 0;
  /// Cache artifacts across gradings. Off rebuilds each artifact on every
  /// request — same results, only slower (the differential-testing knob).
  bool cache = true;
  /// Lane-block width in words for the event engine (0 = 4, see
  /// fault::resolve_lanes). Part of the grading configuration handed to
  /// every simulation this session drives; detection results are identical
  /// for every width.
  unsigned lanes = 0;
  /// Netlist-compile optimization passes for compiled netlists built by this
  /// session: 0 = off, 1 and -1 (the default) = on. Keyed into the
  /// compiled-netlist cache, so sessions with different settings never
  /// alias.
  int netlist_opt = -1;
  /// Default watchdog budget factor for injection campaigns run through
  /// this session: faulty runs get budget_factor × the good machine's
  /// instructions / cycles / stores before the watchdog classifies them as
  /// hung. <= 0 disables the watchdog (legacy 1<<24 instruction cap). Per
  /// call overridable via InjectOptions::budget_factor.
  double budget_factor = 8.0;
  /// Persistent artifact store. When set, every lazy cache slot probes the
  /// store before building (a hit skips the build entirely) and writes the
  /// freshly built image back after. Results are bitwise-identical with the
  /// store on, off, cold, or warm — the store only moves work, never
  /// answers. nullptr = in-memory caching only (the default; tests and CI
  /// stay hermetic).
  std::shared_ptr<store::ArtifactStore> store;
};

/// Build/hit counters per artifact kind; a cache-warm second grading of the
/// same component must increase only the hit counts. `*_builds` counts
/// from-scratch constructions only — an artifact loaded from the persistent
/// store increments `store_hits` instead, which is how a warm-store run
/// proves it skipped the rebuild.
struct SessionStats {
  std::size_t universe_builds = 0, universe_hits = 0;
  std::size_t compile_builds = 0, compile_hits = 0;
  std::size_t observe_builds = 0, observe_hits = 0;
  std::size_t cone_builds = 0, cone_hits = 0;
  std::size_t decode_builds = 0, decode_hits = 0;
  std::size_t goodrun_builds = 0, goodrun_hits = 0;
  std::size_t patterns_builds = 0, patterns_hits = 0;
  /// Persistent-store probe outcomes, counted per artifact request:
  /// store_loads = store_hits + store_misses + store_invalid. `store_invalid`
  /// counts payloads the store served but the artifact codec rejected (the
  /// store's own StoreStats counts file-level corruption separately).
  std::size_t store_loads = 0, store_hits = 0, store_misses = 0;
  std::size_t store_invalid = 0, store_writes = 0;
};

/// Fault-free reference execution of a test program: the stats of the run
/// and the unloaded signature words every injected fault is compared
/// against.
struct GoodRun {
  sim::ExecStats stats;
  std::vector<std::uint32_t> signatures;
};

/// The default self-test program of a model (all seven Table-1 routines):
/// the builder that assembled it, which also builds the per-routine
/// standalone programs, and the combined program.
struct DefaultProgram {
  TestProgramBuilder builder;
  TestProgram program;
};

class GradingSession {
 public:
  explicit GradingSession(const ProcessorModel& model,
                          const SessionOptions& options = {});

  const ProcessorModel& model() const { return *model_; }
  const SessionOptions& options() const { return options_; }

  /// The session's persistent worker pool. Not reentrant: a task running on
  /// the pool must not submit to it.
  fault::ThreadPool& pool() { return pool_; }

  /// Resolved lane-block width for gradings driven by this session.
  unsigned lanes() const;
  /// Resolved compile options for compiled netlists built by this session
  /// (all passes on, or none, per SessionOptions::netlist_opt).
  netlist::CompileOptions compile_options() const;

  /// Collapsed stuck-at fault universe of a component.
  const fault::FaultUniverse& universe(CutId id);
  /// Collapsed fault universe of a component under an explicit fault model.
  /// Each model gets its own cache / store slot (the model is an axis of the
  /// artifact key), so mixed-model sessions never alias universes.
  const fault::FaultUniverse& universe(CutId id, fault::FaultModel model);
  /// Compiled netlist of a component under the session's compile options
  /// (shared read-only across workers).
  const netlist::CompiledNetlist& compiled(CutId id);
  /// Compiled netlist of a component under explicit compile options. The
  /// cache is keyed by (component, options), so differently-optimized
  /// programs never alias.
  const netlist::CompiledNetlist& compiled(CutId id,
                                           const netlist::CompileOptions& opts);
  /// Observe set of a component under a mode.
  const fault::ObserveSet& observe(CutId id, ObserveMode mode);
  /// Fanin-cone reach prefilter of the mode's observe set, indexed per gate.
  /// Derives from compiled() and observe() and (re)builds them as needed, so
  /// with the cache off fetch the cone BEFORE taking references to those.
  const std::vector<std::uint8_t>& cone(CutId id, ObserveMode mode);

  /// Predecoded micro-op image of a program, content-addressed over
  /// (base, words). Shared read-only across concurrently-running CPUs —
  /// Cpu clones before patching, so one handout serves any number of
  /// parallel faulty runs.
  std::shared_ptr<const isa::DecodedProgram> decoded(const isa::Program& image);

  /// Fault-free reference run of `program` under `config`, executed once
  /// per distinct (image, entry, signature layout, config) and cached.
  /// Returned reference follows the same cache-off invalidation caveat as
  /// the other accessors; copy it before fanning out faulty runs.
  const GoodRun& good_run(const TestProgram& program,
                          const sim::CpuConfig& config = {});

  /// Good-path table of `target` (an injectable CUT) under `program` and
  /// `config`: the distinct operand tuples its fault-free run applies,
  /// with their fault-free outputs. Keyed like good_run() plus the CUT,
  /// built once per key and kept in memory only (the traced run it takes
  /// costs about as much as the good run). The handout stays valid after
  /// a cache-off rebuild replaces the slot.
  std::shared_ptr<const GoodPathTable> good_path(
      const TestProgram& program, const sim::CpuConfig& config,
      CutId target);

  /// The default program of the session's model (default codegen options),
  /// assembled once and kept in memory only. Assembling it runs the shifter
  /// routine's constrained ATPG, which a warm session thus skips. The
  /// handout stays valid after a cache-off rebuild replaces the slot.
  std::shared_ptr<const DefaultProgram> default_program();

  /// Named pattern set for a component, built by `build` on a cold miss.
  /// `tag` names the generator (e.g. "atpg-podem") and is part of the key,
  /// so differently-generated sets for the same component never alias. The
  /// builder must be deterministic for the tag — the store hands back a
  /// previous process's build verbatim. It runs with the session unlocked,
  /// so it may freely call the other accessors (compiled(), universe(), …).
  const fault::PatternSet& patterns(
      CutId id, const std::string& tag,
      const std::function<fault::PatternSet(const netlist::Netlist&)>& build);

  SessionStats stats() const;

  // Accessors are thread-safe; with the cache ON, returned references stay
  // valid for the session's lifetime. With the cache OFF a later request
  // for the SAME (component, artifact, mode) slot replaces the object, so
  // plan all artifact fetches before fanning work out (evaluate_program
  // does).

 private:
  /// How to make one artifact: its cache key, its from-scratch build, the
  /// optional store codec and the optional builds/hits counters. Defined in
  /// session.cpp, next to fetch().
  template <typename T>
  struct Recipe;

  // The one fetch path, called with `lock` held on mutex_: memory hit, else
  // store probe, else build, then write back, counting each step. A recipe
  // that builds unlocked releases `lock` around its build only.
  template <typename T>
  std::shared_ptr<const T> fetch(std::unique_lock<std::mutex>& lock,
                                 const Recipe<T>& recipe);

  const netlist::CompiledNetlist& compiled_locked(
      std::unique_lock<std::mutex>& lock, CutId id,
      const netlist::CompileOptions& opts);
  const fault::ObserveSet& observe_locked(std::unique_lock<std::mutex>& lock,
                                          CutId id, ObserveMode mode);
  std::shared_ptr<const isa::DecodedProgram> decoded_locked(
      std::unique_lock<std::mutex>& lock, const isa::Program& image);

  const ProcessorModel* model_;
  SessionOptions options_;
  mutable std::mutex mutex_;
  // Every artifact, keyed by (kind, the key bytes the store files it
  // under). Slots are replaced (cache off) but never erased; std::map keeps
  // the slot a fetch holds in place while nested fetches insert.
  std::map<std::pair<std::string, std::vector<std::uint8_t>>,
           std::shared_ptr<const void>>
      cache_;
  SessionStats stats_;
  fault::ThreadPool pool_;
};

}  // namespace sbst::core

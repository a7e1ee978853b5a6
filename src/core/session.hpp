// Grading sessions: per-model caches of fault-grading artifacts plus one
// persistent worker pool.
//
// Every fault grading of a component needs the same derived artifacts —
// the collapsed fault universe, the compiled netlist, the observe set for
// the requested observability mode, and the observe-cone reach prefilter.
// Before this layer each evaluate_program / bench / CLI call rebuilt all of
// them per call, and every simulate_*_parallel invocation spun up a fresh
// ThreadPool. A GradingSession amortizes both: artifacts are built lazily
// on first use and cached per (component, mode), and one pool lives for the
// session's lifetime and schedules whole-CUT gradings as interleaved chunk
// tasks (see fault::GradingPlan).
//
// Caching never changes results: artifacts are pure functions of the model
// and the mode, so ProgramEvaluation output is bitwise-identical with the
// cache on or off (enforced by tests/test_session.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
  /// Lane-block width in words for the event engine (0 =
  /// fault::default_lanes()). Part of the grading configuration handed to
  /// every simulation this session drives; detection results are identical
  /// for every width.
  unsigned lanes = 0;
  /// Netlist-compile optimization passes for compiled netlists built by this
  /// session: 1 = on, 0 = off, -1 = fault::default_netlist_opt(). Keyed into
  /// the compiled-netlist cache, so sessions with different settings never
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
  // One slot per canonical ArtifactKey; at most one member is non-null
  // (which one is determined by the key's kind). A std::map keyed by the
  // full ArtifactKey replaces the old per-kind parallel containers
  // (component-indexed vector + per-slot options scan + mode arrays):
  // node stability keeps handed-out references valid as the map grows, and
  // the in-memory key is the exact struct the store serializes, so memory
  // and disk can never disagree about an artifact's identity.
  struct ArtifactSlot {
    std::unique_ptr<fault::FaultUniverse> universe;
    std::unique_ptr<netlist::CompiledNetlist> compiled;
    std::unique_ptr<fault::ObserveSet> observe;
    std::unique_ptr<std::vector<std::uint8_t>> cone;
    std::unique_ptr<fault::PatternSet> patterns;
  };

  // Program-level caches are content-addressed: a fast 64-bit hash narrows
  // the scan, then the full key (image words + run parameters) is compared,
  // so a hash collision can never alias two different programs.
  struct DecodedEntry {
    std::uint64_t hash = 0;
    std::uint32_t base = 0;
    std::vector<std::uint32_t> words;
    std::shared_ptr<const isa::DecodedProgram> decoded;
  };
  /// Identity of one run of a program: image, entry, signature layout and
  /// CPU configuration.
  struct RunKey {
    RunKey(const TestProgram& program, const sim::CpuConfig& config);
    bool operator==(const RunKey& other) const;

    std::uint64_t hash = 0;
    std::uint32_t base = 0;
    std::uint32_t entry = 0;
    std::uint32_t signature_base = 0;
    std::vector<std::uint32_t> words;
    sim::CpuConfig config;
  };
  struct GoodRunEntry {
    RunKey key;
    GoodRun run;
  };
  struct GoodPathEntry {
    RunKey key;
    CutId target;
    std::shared_ptr<const GoodPathTable> table;
  };

  const netlist::CompiledNetlist& compiled_locked(
      CutId id, const netlist::CompileOptions& opts);
  const fault::ObserveSet& observe_locked(CutId id, ObserveMode mode);
  std::shared_ptr<const isa::DecodedProgram> decoded_locked(
      const isa::Program& image);

  // Store plumbing (all called under mutex_). probe_store returns the
  // payload bytes for a key, maintaining the load/miss counters; the caller
  // reports the decode outcome via the hit/invalid counters.
  std::optional<std::vector<std::uint8_t>> probe_store(
      const store::ArtifactKey& key);
  std::optional<std::vector<std::uint8_t>> probe_store(
      const std::string& kind, const std::vector<std::uint8_t>& key_bytes);
  void write_store(const store::ArtifactKey& key,
                   const std::vector<std::uint8_t>& payload);
  void write_store(const std::string& kind,
                   const std::vector<std::uint8_t>& key_bytes,
                   const std::vector<std::uint8_t>& payload);

  const ProcessorModel* model_;
  SessionOptions options_;
  mutable std::mutex mutex_;
  // Canonical artifact cache; see ArtifactSlot. std::map for node stability.
  std::map<store::ArtifactKey, ArtifactSlot> artifacts_;
  // Deques: growth must not invalidate references handed out earlier.
  std::deque<DecodedEntry> decoded_cache_;
  std::deque<GoodRunEntry> goodrun_cache_;
  std::vector<GoodPathEntry> goodpath_cache_;
  SessionStats stats_;
  fault::ThreadPool pool_;
};

}  // namespace sbst::core

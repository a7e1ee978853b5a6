// Fault-simulation engine selection and shared per-run engine artifacts.
//
// Every simulator in sim.hpp / sim_parallel.hpp grades the same contract
// with one of two interchangeable evaluation engines; detection flags are
// bitwise-identical across engines for any netlist, stimulus, observe set,
// thread count, and lane packing:
//
//  * kReference: the original Evaluator — full topo-order re-evaluation per
//    eval(), hash-map pin forces. The oracle engine the event engine is
//    cross-checked against.
//  * kEvent:     CompiledEvaluator in event-driven mode — dense force
//    arrays over a levelized program; after the good-machine pass each
//    injected fault re-simulates only its fanout cone, and faults whose
//    cone cannot reach the observe set are skipped up front. The
//    production default.
//
// EngineContext bundles the engine's immutable per-run artifacts — the
// compiled program and the observe-cone reach prefilter — built once and
// shared read-only by every worker. A caller that already holds them (e.g.
// a core::GradingSession cache) lends them in instead, so repeated gradings
// of the same netlist pay for compilation and cone marking exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/compiled.hpp"
#include "netlist/eval.hpp"
#include "store/artifact_store.hpp"

namespace sbst::fault {

/// Canonical persistent-store key for a compiled netlist: content hash of
/// the netlist plus the compile options and lane width. Shared by
/// EngineContext and core::GradingSession so a store warmed through either
/// layer serves the other.
store::ArtifactKey compiled_store_key(const netlist::Netlist& nl,
                                      const netlist::CompileOptions& opts,
                                      unsigned lanes);

enum class Engine : std::uint8_t {
  kReference,
  kEvent,
};

/// "reference" or "event".
const char* engine_name(Engine engine);

/// Lane-block width a grading runs at: `requested` words, where 0 means the
/// default of 4 (one event-driven pass lane-packs 255 faults); 4 runs four
/// words and anything else one. The reference engine always runs
/// single-word.
unsigned resolve_lanes(unsigned requested, Engine engine);

/// Compile options for netlists a grading compiles: every optimization pass
/// (constant propagation, inverter fusion, dead-gate sweep) or none, per
/// `netlist_opt` (0 = off; 1 and the default -1 = on).
netlist::CompileOptions resolve_compile_options(int netlist_opt);

/// Immutable per-run grading artifacts for one (engine, netlist, observe
/// set) triple: the resolved observe set, the compiled program (for the
/// event engine), and the observe-cone reach prefilter. Construction
/// also warms the netlist's cached topological order so worker threads only
/// ever read it. Thread-safe to share by const reference; each worker
/// builds its own evaluator via grade_with_evaluator().
class EngineContext {
 public:
  /// Builds the artifacts for grading `nl` observed at `observe` (empty =
  /// all declared outputs). When the caller already owns a matching
  /// `compiled` netlist and/or `reach` prefilter (they must correspond to
  /// `nl` and `observe`), they are borrowed instead of rebuilt and must
  /// outlive this context. `lanes` is the lane-block width in words (see
  /// resolve_lanes). `netlist_opt` selects the compile-time optimization
  /// passes when this context builds its own compiled netlist; a borrowed
  /// `compiled` keeps whatever options it was built with. When `store` is
  /// set and this context compiles its own netlist, the persistent artifact
  /// store is probed first (keyed by netlist content hash + options + lane
  /// width) and written back after a from-scratch compile — results are
  /// identical either way.
  EngineContext(Engine engine, const netlist::Netlist& nl,
                std::vector<netlist::NetId> observe,
                const netlist::CompiledNetlist* compiled = nullptr,
                const std::uint8_t* reach = nullptr, unsigned lanes = 0,
                int netlist_opt = -1, store::ArtifactStore* store = nullptr);

  Engine engine() const { return engine_; }
  /// Resolved lane-block width in words (1 for the reference engine).
  unsigned lanes() const { return lanes_; }
  const netlist::Netlist& netlist() const { return *nl_; }
  const std::vector<netlist::NetId>& observe() const { return observe_; }
  /// Per-gate observe-cone membership, or nullptr for the reference engine
  /// (which runs unfiltered, as the oracle).
  const std::uint8_t* reach() const { return reach_; }
  /// Compiled program, or nullptr for the reference engine.
  const netlist::CompiledNetlist* compiled() const { return compiled_; }

  /// Calls grade(ev) on a freshly built evaluator for this engine at the
  /// resolved lane width. The grading templates in sim_detail.hpp are
  /// lane-generic (Ev::kWords), so each width instantiates its own inner
  /// loops.
  template <typename GradeFn>
  void grade_with_evaluator(const GradeFn& grade) const {
    if (engine_ == Engine::kReference) {
      netlist::Evaluator ev(*nl_);
      grade(ev);
    } else if (lanes_ == 4) {
      netlist::CompiledEvaluatorT<4> ev(*compiled_);
      grade(ev);
    } else {
      netlist::CompiledEvaluatorT<1> ev(*compiled_);
      grade(ev);
    }
  }

 private:
  Engine engine_;
  unsigned lanes_;
  const netlist::Netlist* nl_;
  std::vector<netlist::NetId> observe_;
  std::unique_ptr<netlist::CompiledNetlist> owned_compiled_;
  std::vector<std::uint8_t> reach_store_;
  const netlist::CompiledNetlist* compiled_ = nullptr;
  const std::uint8_t* reach_ = nullptr;
};

}  // namespace sbst::fault

// Fault simulators.
//
// Two kinds of simulator with one contract — grade a fault list against a
// stimulus, counting a fault detected when an observed output differs from
// the fault-free response:
//
//  * simulate_serial (here): one fault at a time, one pattern (or, for
//    transition faults, one 64-pattern block) at a time; the SeqStimulus
//    overload runs one fault through the whole clocked stimulus. The
//    independent oracles the fast paths are cross-checked against in
//    tests, for every fault model.
//  * simulate_comb_parallel / simulate_seq_parallel (sim_parallel.hpp):
//    the production graders — critical-path tracing for combinational
//    netlists, cone-restricted lane packing for sequential ones — on a
//    fault-partitioned thread pool. SimOptions{.num_threads = 1} runs them
//    on the calling thread.
#pragma once

#include <vector>

#include "fault/engine.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"

namespace sbst::fault {

/// Restricts which output nets count as observation points (e.g. only the
/// outputs a self-test routine actually propagates). Empty = all outputs.
using ObserveSet = std::vector<netlist::NetId>;

// The combinational simulate_serial accepts an evaluation Engine
// (engine.hpp); the clocked one always runs the reference Evaluator. The
// default is kReference so simulate_serial stays independent of the
// compiled evaluator; detection flags are bitwise-identical for every
// engine, lane width, and optimization setting. `lanes` is the lane-block
// width in words for the event engine (0 = 4, see resolve_lanes; the
// reference engine ignores it).

CoverageResult simulate_serial(const netlist::Netlist& nl,
                               const std::vector<Fault>& faults,
                               const PatternSet& patterns,
                               const ObserveSet& observe = {},
                               Engine engine = Engine::kReference,
                               unsigned lanes = 0);

/// The sequential serial oracle: one fault at a time through the whole
/// clocked `stimulus` on the reference Evaluator, no lane packing.
/// Stuck-at, transient SEU and intermittent; transition faults throw
/// std::invalid_argument.
CoverageResult simulate_serial(const netlist::Netlist& nl,
                               const std::vector<Fault>& faults,
                               const SeqStimulus& stimulus,
                               const ObserveSet& observe = {});

}  // namespace sbst::fault

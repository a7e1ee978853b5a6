// Fault simulators.
//
// Three simulators with one contract — grade a fault list against a
// stimulus, counting a fault detected when an observed output differs from
// the fault-free response:
//
//  * simulate_serial:   one fault at a time, one pattern (or, for transition
//                       faults, one 64-pattern block) at a time; the
//                       SeqStimulus overload runs one fault through the
//                       whole clocked stimulus. The independent oracles the
//                       fast paths are cross-checked against in tests, for
//                       every fault model.
//  * simulate_comb:     PPSFP — 64 packed patterns per pass, one fault
//                       re-simulated per pass with fault dropping
//                       (transition faults: critical-path tracing).
//                       Combinational netlists only.
//  * simulate_seq:      parallel-fault — lane 0 is the fault-free machine,
//                       the other lanes carry faulty machines through the
//                       whole clocked stimulus. Works for sequential
//                       netlists (divider, register file, memory
//                       controller); transition faults are rejected.
//
// simulate_comb and simulate_seq are the single-threaded form of the
// fault-partitioned engines in sim_parallel.hpp.
#pragma once

#include <optional>
#include <vector>

#include "fault/engine.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"

namespace sbst::fault {

/// Restricts which output nets count as observation points (e.g. only the
/// outputs a self-test routine actually propagates). Empty = all outputs.
using ObserveSet = std::vector<netlist::NetId>;

// Each simulator except the clocked simulate_serial (which always runs the
// reference Evaluator) accepts an evaluation Engine (engine.hpp). The
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

CoverageResult simulate_comb(const netlist::Netlist& nl,
                             const std::vector<Fault>& faults,
                             const PatternSet& patterns,
                             const ObserveSet& observe = {},
                             Engine engine = Engine::kReference,
                             unsigned lanes = 0);

CoverageResult simulate_seq(const netlist::Netlist& nl,
                            const std::vector<Fault>& faults,
                            const SeqStimulus& stimulus,
                            const ObserveSet& observe = {},
                            Engine engine = Engine::kReference,
                            unsigned lanes = 0);

/// Incremental PPSFP grading for fault-dropping loops (ATPG test-set
/// generation): simulates `patterns` against the faults whose `flags` entry
/// is still 0 and sets the flag of each new detection. Reuses a prebuilt
/// EngineContext so repeated calls (one per pattern batch) pay for
/// compilation and cone marking once. Stuck-at faults only: their flags are
/// bitwise-identical to grading all batches together with any other
/// simulator. Every other model throws std::invalid_argument, because
/// activation-stream indices and launch/capture pairs restart with each
/// batch, so split batches would not add up to one grading.
void simulate_comb_into(const EngineContext& ctx,
                        const std::vector<Fault>& faults,
                        const PatternSet& patterns, std::uint8_t* flags);

/// Fault-free responses of a combinational netlist: for each pattern, the
/// value of each observed output net (packed per pattern in pattern order).
/// Used by TPG-quality analyses and the MISR aliasing experiments.
std::vector<std::vector<bool>> good_responses(const netlist::Netlist& nl,
                                              const PatternSet& patterns,
                                              const ObserveSet& observe = {});

}  // namespace sbst::fault

#include "atpg/testgen.hpp"

#include <stdexcept>

#include "fault/sim_parallel.hpp"

namespace sbst::atpg {

using fault::CoverageResult;
using fault::Fault;
using fault::PatternSet;
using fault::PortValue;
using netlist::Netlist;
using netlist::NetId;

namespace {

// Patterns accumulated between fault-dropping simulation passes.
constexpr std::size_t kDropBatch = 16;

// Converts a raw per-input-net assignment into {port, value} pairs.
std::vector<PortValue> to_port_values(const Netlist& nl,
                                      const std::vector<bool>& bits) {
  std::vector<std::size_t> index(nl.size(), 0);
  const auto& ins = nl.inputs();
  for (std::size_t k = 0; k < ins.size(); ++k) index[ins[k]] = k;

  std::vector<PortValue> out;
  out.reserve(nl.input_ports().size());
  for (const netlist::Port& p : nl.input_ports()) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < p.nets.size(); ++b) {
      if (bits[index[p.nets[b]]]) v |= std::uint64_t{1} << b;
    }
    out.emplace_back(p.name, v);
  }
  return out;
}

}  // namespace

TestGenResult generate_atpg_tests(const Netlist& nl,
                                  const std::vector<Fault>& faults,
                                  const InputConstraints& constraints,
                                  const TestGenOptions& options,
                                  const fault::ObserveSet& observe) {
  // Each fault-dropping pass grades only the faults still undetected, so
  // the passes add up to one grading only when a fault's detection does not
  // depend on which patterns share its pass: stuck-at faults. Activation
  // streams and launch/capture pairs would restart with every pass.
  for (const Fault& f : faults) {
    if (f.model != fault::FaultModel::kStuckAt) {
      throw std::invalid_argument(
          "generate_atpg_tests: stuck-at faults only (activation streams "
          "and launch/capture pairs restart with every fault-dropping pass)");
    }
  }
  TestGenResult res{PatternSet(nl), {}, 0, 0, 0};
  res.coverage.total = faults.size();
  res.coverage.detected_flags.assign(faults.size(), 0);
  std::vector<std::uint8_t>& flags = res.coverage.detected_flags;

  Rng rng(options.seed);
  Podem podem(nl, constraints, options.podem);

  // One engine context for every fault-dropping pass: compilation and cone
  // marking happen once (or the compiled netlist is borrowed from a
  // session), and each pass is lent them.
  const fault::EngineContext ctx(fault::Engine::kEvent, nl, observe,
                                 options.compiled);
  fault::SimOptions drop_options;
  drop_options.num_threads = 1;
  drop_options.compiled = ctx.compiled();
  drop_options.reach = ctx.reach();
  // Grades `patterns` against the faults not yet detected and sets the
  // flags of the new detections.
  std::vector<std::size_t> left;
  std::vector<Fault> left_faults;
  auto drop = [&](const PatternSet& patterns) {
    left.clear();
    left_faults.clear();
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (flags[f]) continue;
      left.push_back(f);
      left_faults.push_back(faults[f]);
    }
    if (left.empty()) return;
    const CoverageResult got = fault::simulate_comb_parallel(
        nl, left_faults, patterns, ctx.observe(), drop_options);
    for (std::size_t i = 0; i < left.size(); ++i) {
      if (got.detected_flags[i]) flags[left[i]] = 1;
    }
  };

  // Pending patterns not yet fault-simulated.
  PatternSet pending(nl);
  auto flush_pending = [&]() {
    if (pending.size() == 0) return;
    drop(pending);
    pending = PatternSet(nl);
  };

  // Cheap pre-drop with constrained random patterns.
  if (options.random_warmup > 0) {
    PatternSet warm(nl);
    for (unsigned i = 0; i < options.random_warmup; ++i) {
      std::vector<bool> bits;
      bits.reserve(nl.inputs().size());
      for (NetId pi : nl.inputs()) {
        bits.push_back(constraints.is_fixed(pi) ? constraints.value_of(pi)
                                                : rng.chance(0.5));
      }
      const auto pv = to_port_values(nl, bits);
      warm.add(pv);
      res.patterns.add(pv);
    }
    drop(warm);
  }

  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (flags[f]) continue;
    if (pending.size() >= kDropBatch) flush_pending();
    if (flags[f]) continue;

    ++res.atpg_calls;
    const AtpgOutcome outcome = podem.generate(faults[f], rng);
    switch (outcome.status) {
      case AtpgStatus::kDetected: {
        const auto pv = to_port_values(nl, outcome.pattern);
        pending.add(pv);
        res.patterns.add(pv);
        // The target fault is detected by construction; mark it now so an
        // abort later in the batch cannot resurrect it.
        flags[f] = 1;
        break;
      }
      case AtpgStatus::kUntestable:
        ++res.untestable;
        break;
      case AtpgStatus::kAborted:
        ++res.aborted;
        break;
    }
  }
  flush_pending();

  res.coverage.recount();
  return res;
}

PatternSet generate_random_tests(const Netlist& nl, std::size_t count,
                                 std::uint32_t seed, std::uint32_t poly,
                                 const InputConstraints& constraints) {
  PatternSet out(nl);
  // One LFSR stream per input port, seeded distinctly but deterministically
  // (the software routine updates one register per operand).
  std::vector<Lfsr32> streams;
  std::uint32_t s = seed == 0 ? 1u : seed;
  for (std::size_t k = 0; k < nl.input_ports().size(); ++k) {
    streams.emplace_back(s, poly);
    s = s * 0x9e3779b9u + 1u;
    if (s == 0) s = 1;
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<PortValue> pv;
    pv.reserve(nl.input_ports().size());
    for (std::size_t k = 0; k < nl.input_ports().size(); ++k) {
      const netlist::Port& p = nl.input_ports()[k];
      std::uint64_t v = streams[k].step();
      if (p.nets.size() > 32) {
        v |= static_cast<std::uint64_t>(streams[k].step()) << 32;
      }
      // Apply constraints bit-by-bit.
      for (std::size_t b = 0; b < p.nets.size(); ++b) {
        if (constraints.is_fixed(p.nets[b])) {
          v = constraints.value_of(p.nets[b])
                  ? (v | (std::uint64_t{1} << b))
                  : (v & ~(std::uint64_t{1} << b));
        }
      }
      pv.emplace_back(p.name, v);
    }
    out.add(pv);
  }
  return out;
}

}  // namespace sbst::atpg

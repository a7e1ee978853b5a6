// Differential tests for the parallel fault-simulation engines
// (sim_parallel.hpp) against the serial oracles, plus edge-case coverage of
// the pattern/lane machinery and the CoverageResult invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_detail.hpp"
#include "fault/sim_parallel.hpp"
#include "fault/thread_pool.hpp"
#include "netlist/compiled.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/regfile.hpp"

namespace sbst::fault {
namespace {

using netlist::GateKind;
using netlist::NetId;
using netlist::Netlist;

// Block PPSFP and lane-packed sequential grading on the calling thread and
// the reference engine.
const SimOptions kBlocksRef{.num_threads = 1,
                            .lane_parallel = false,
                            .engine = Engine::kReference};
const SimOptions kSeqRef{.num_threads = 1, .engine = Engine::kReference};

// ---- seeded random circuit / stimulus generators ---------------------------

/// Random combinational netlist: every gate's fan-in comes from earlier nets,
/// so the result is acyclic by construction. Outputs are the last few nets
/// plus a random sample (every run has at least one output).
Netlist random_comb_netlist(Rng& rng, unsigned n_inputs, unsigned n_gates) {
  Netlist nl("random_comb");
  std::vector<NetId> nets;
  for (unsigned i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  auto pick = [&] { return nets[rng.below(nets.size())]; };
  for (unsigned g = 0; g < n_gates; ++g) {
    NetId n;
    switch (rng.below(9)) {
      case 0: n = nl.buf(pick()); break;
      case 1: n = nl.not_(pick()); break;
      case 2: n = nl.and_(pick(), pick()); break;
      case 3: n = nl.or_(pick(), pick()); break;
      case 4: n = nl.nand_(pick(), pick()); break;
      case 5: n = nl.nor_(pick(), pick()); break;
      case 6: n = nl.xor_(pick(), pick()); break;
      case 7: n = nl.xnor_(pick(), pick()); break;
      default: n = nl.mux2(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  unsigned n_outputs = 0;
  for (std::size_t i = n_inputs; i < nets.size(); ++i) {
    const bool tail = i + 3 >= nets.size();
    if (tail || rng.chance(0.1)) {
      nl.output("o" + std::to_string(n_outputs++), nets[i]);
    }
  }
  return nl;
}

/// Random sequential netlist: DFFs created up front so combinational logic
/// can read them, D inputs bound to random nets afterwards (feedback loops
/// through state are legal and common).
Netlist random_seq_netlist(Rng& rng, unsigned n_inputs, unsigned n_dffs,
                           unsigned n_gates) {
  Netlist nl("random_seq");
  std::vector<NetId> nets;
  for (unsigned i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  std::vector<NetId> qs;
  for (unsigned i = 0; i < n_dffs; ++i) {
    const NetId q = nl.dff("q" + std::to_string(i));
    qs.push_back(q);
    nets.push_back(q);
  }
  auto pick = [&] { return nets[rng.below(nets.size())]; };
  for (unsigned g = 0; g < n_gates; ++g) {
    NetId n;
    switch (rng.below(7)) {
      case 0: n = nl.not_(pick()); break;
      case 1: n = nl.and_(pick(), pick()); break;
      case 2: n = nl.or_(pick(), pick()); break;
      case 3: n = nl.nand_(pick(), pick()); break;
      case 4: n = nl.xor_(pick(), pick()); break;
      case 5: n = nl.nor_(pick(), pick()); break;
      default: n = nl.mux2(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  for (NetId q : qs) nl.connect_dff(q, pick());
  unsigned n_outputs = 0;
  for (std::size_t i = n_inputs + n_dffs; i < nets.size(); ++i) {
    const bool tail = i + 3 >= nets.size();
    if (tail || rng.chance(0.15)) {
      nl.output("o" + std::to_string(n_outputs++), nets[i]);
    }
  }
  return nl;
}

PatternSet random_patterns(Rng& rng, const Netlist& nl, std::size_t count) {
  PatternSet ps(nl);
  for (std::size_t i = 0; i < count; ++i) ps.add_random(rng);
  return ps;
}

SeqStimulus random_stimulus(Rng& rng, const Netlist& nl, std::size_t cycles) {
  SeqStimulus st(nl);
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<PortValue> values;
    for (const netlist::Port& p : nl.input_ports()) {
      values.emplace_back(p.name, rng.next64());
    }
    st.add_cycle(values, rng.chance(0.7));
  }
  return st;
}

void expect_same_flags(const CoverageResult& oracle, const CoverageResult& got,
                       const Netlist& nl, const std::vector<Fault>& faults,
                       const char* label) {
  ASSERT_EQ(oracle.detected_flags.size(), got.detected_flags.size()) << label;
  for (std::size_t i = 0; i < oracle.detected_flags.size(); ++i) {
    EXPECT_EQ(oracle.detected_flags[i], got.detected_flags[i])
        << label << ": " << fault_name(nl, faults[i]);
  }
  EXPECT_EQ(oracle.detected, got.detected) << label;
  EXPECT_EQ(oracle.total, got.total) << label;
}

void expect_invariant(const CoverageResult& res) {
  std::size_t count = 0;
  for (auto flag : res.detected_flags) count += flag ? 1 : 0;
  EXPECT_EQ(res.detected, count);
  EXPECT_EQ(res.total, res.detected_flags.size());
}

// ---- differential suite ----------------------------------------------------

TEST(FaultParallel, CombDifferentialRandomNetlists) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const Netlist nl = random_comb_netlist(rng, 6 + rng.below(6),
                                           40 + rng.below(80));
    FaultUniverse u(nl);
    const auto& faults = u.collapsed();
    // 100 patterns: deliberately not a multiple of 64.
    const PatternSet ps = random_patterns(rng, nl, 100);

    const CoverageResult oracle = simulate_serial(nl, faults, ps);
    expect_invariant(oracle);
    expect_same_flags(oracle,
                      simulate_comb_parallel(nl, faults, ps, {}, kBlocksRef),
                      nl, faults, "blocks/reference");
    for (unsigned threads : {1u, 2u, 8u}) {
      for (bool lanes : {false, true}) {
        const SimOptions opt{.num_threads = threads, .lane_parallel = lanes};
        const CoverageResult got =
            simulate_comb_parallel(nl, faults, ps, {}, opt);
        expect_invariant(got);
        expect_same_flags(oracle, got, nl, faults,
                          lanes ? "parallel/lane" : "parallel/block");
      }
    }
  }
}

TEST(FaultParallel, SeqDifferentialRandomNetlists) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const Netlist nl = random_seq_netlist(rng, 4 + rng.below(4),
                                          3 + rng.below(5), 30 + rng.below(50));
    FaultUniverse u(nl);
    const auto& faults = u.collapsed();
    const SeqStimulus st = random_stimulus(rng, nl, 40);

    const CoverageResult oracle = simulate_serial(nl, faults, st);
    expect_invariant(oracle);
    expect_same_flags(oracle,
                      simulate_seq_parallel(nl, faults, st, {}, kSeqRef), nl,
                      faults, "seq/reference");
    for (unsigned threads : {1u, 2u, 8u}) {
      const CoverageResult got = simulate_seq_parallel(
          nl, faults, st, {}, {.num_threads = threads});
      expect_invariant(got);
      expect_same_flags(oracle, got, nl, faults, "seq_parallel");
    }
  }
}

TEST(FaultParallel, ThreadCountInvariance) {
  Rng rng(99);
  const Netlist nl = random_comb_netlist(rng, 8, 120);
  FaultUniverse u(nl);
  const PatternSet ps = random_patterns(rng, nl, 130);
  const CoverageResult one = simulate_comb_parallel(nl, u.collapsed(), ps, {},
                                                    {.num_threads = 1});
  for (unsigned threads : {2u, 3u, 5u, 8u, 16u}) {
    const CoverageResult got = simulate_comb_parallel(
        nl, u.collapsed(), ps, {}, {.num_threads = threads});
    EXPECT_EQ(one.detected_flags, got.detected_flags) << threads << " threads";
  }
  // And repeated runs with the same thread count are stable.
  const CoverageResult again = simulate_comb_parallel(nl, u.collapsed(), ps,
                                                      {}, {.num_threads = 4});
  EXPECT_EQ(one.detected_flags, again.detected_flags);
}

// ---- edge cases of the pattern/lane machinery ------------------------------

TEST(FaultParallel, PatternCountsAroundLaneBoundary) {
  Rng rng(7);
  const Netlist nl = random_comb_netlist(rng, 5, 60);
  FaultUniverse u(nl);
  const auto& faults = u.collapsed();
  for (std::size_t n_patterns : {1u, 63u, 64u, 65u, 130u}) {
    Rng prng(1000 + n_patterns);
    const PatternSet ps = random_patterns(prng, nl, n_patterns);
    const CoverageResult oracle = simulate_serial(nl, faults, ps);
    expect_same_flags(oracle,
                      simulate_comb_parallel(nl, faults, ps, {}, kBlocksRef),
                      nl, faults, "blocks/reference");
    for (bool lanes : {false, true}) {
      const CoverageResult got = simulate_comb_parallel(
          nl, faults, ps, {}, {.num_threads = 2, .lane_parallel = lanes});
      expect_same_flags(oracle, got, nl, faults, "comb_parallel");
    }
  }
}

TEST(FaultParallel, EmptyFaultList) {
  Rng rng(21);
  const Netlist nl = random_comb_netlist(rng, 4, 20);
  const PatternSet ps = random_patterns(rng, nl, 10);
  const std::vector<Fault> none;
  for (bool lanes : {false, true}) {
    const CoverageResult res = simulate_comb_parallel(
        nl, none, ps, {}, {.num_threads = 4, .lane_parallel = lanes});
    EXPECT_EQ(res.total, 0u);
    EXPECT_EQ(res.detected, 0u);
    EXPECT_TRUE(res.detected_flags.empty());
    EXPECT_DOUBLE_EQ(res.percent(), 100.0);
  }
  const Netlist snl = random_seq_netlist(rng, 3, 2, 15);
  const SeqStimulus st = random_stimulus(rng, snl, 8);
  const CoverageResult res = simulate_seq_parallel(snl, none, st);
  EXPECT_EQ(res.total, 0u);
  EXPECT_TRUE(res.detected_flags.empty());
}

TEST(FaultParallel, SingleInputNetlist) {
  Netlist nl("inv_chain");
  const NetId a = nl.input("a");
  const NetId x = nl.not_(nl.not_(nl.not_(a)));
  nl.output("y", x);
  FaultUniverse u(nl);
  PatternSet ps(nl);
  ps.add({{"a", 0}});
  ps.add({{"a", 1}});
  const CoverageResult oracle = simulate_serial(nl, u.collapsed(), ps);
  EXPECT_EQ(oracle.detected, oracle.total);  // both polarities covered
  for (bool lanes : {false, true}) {
    const CoverageResult got = simulate_comb_parallel(
        nl, u.collapsed(), ps, {}, {.num_threads = 2, .lane_parallel = lanes});
    expect_same_flags(oracle, got, nl, u.collapsed(), "single-input");
  }
}

TEST(FaultParallel, FaultCountsAroundBatchBoundary) {
  Rng rng(33);
  const Netlist nl = random_comb_netlist(rng, 8, 200);
  FaultUniverse u(nl);
  const PatternSet ps = random_patterns(rng, nl, 64);
  // Slice the universe to sizes around the 63-fault lane batch: 1, 62, 63,
  // 64, 126, 127 — none need be a multiple of 63.
  for (std::size_t n : {1u, 62u, 63u, 64u, 126u, 127u}) {
    ASSERT_LE(n, u.size());
    const std::vector<Fault> faults(u.collapsed().begin(),
                                    u.collapsed().begin() + n);
    const CoverageResult oracle = simulate_serial(nl, faults, ps);
    for (bool lanes : {false, true}) {
      const CoverageResult got = simulate_comb_parallel(
          nl, faults, ps, {}, {.num_threads = 3, .lane_parallel = lanes});
      expect_same_flags(oracle, got, nl, faults, "sliced universe");
    }
  }
}

TEST(FaultParallel, ObserveSetRestrictedToOneOutput) {
  Rng rng(55);
  const Netlist nl = random_comb_netlist(rng, 6, 80);
  FaultUniverse u(nl);
  const PatternSet ps = random_patterns(rng, nl, 70);
  const std::vector<NetId> outs = nl.output_nets();
  ASSERT_GE(outs.size(), 2u);
  const ObserveSet narrow{outs.front()};

  const CoverageResult oracle = simulate_serial(nl, u.collapsed(), ps, narrow);
  const CoverageResult full = simulate_serial(nl, u.collapsed(), ps);
  EXPECT_LT(oracle.detected, full.detected);  // restriction must bite
  expect_same_flags(
      oracle, simulate_comb_parallel(nl, u.collapsed(), ps, narrow, kBlocksRef),
      nl, u.collapsed(), "blocks/reference/narrow");
  for (bool lanes : {false, true}) {
    const CoverageResult got = simulate_comb_parallel(
        nl, u.collapsed(), ps, narrow,
        {.num_threads = 2, .lane_parallel = lanes});
    expect_same_flags(oracle, got, nl, u.collapsed(), "parallel/narrow");
  }
}

TEST(FaultParallel, SeqParallelOnCombNetlistMatchesSerial) {
  // simulate_seq_parallel must also grade pure combinational netlists (it is
  // the engine evaluate_program would use if a CUT lost its flip-flops).
  Rng rng(77);
  const Netlist nl = random_comb_netlist(rng, 5, 40);
  FaultUniverse u(nl);
  SeqStimulus st(nl);
  PatternSet ps(nl);
  Rng srng(78);
  for (int i = 0; i < 20; ++i) {
    std::vector<PortValue> values;
    for (const netlist::Port& p : nl.input_ports()) {
      values.emplace_back(p.name, srng.next64());
    }
    st.add_cycle(values, true);
    ps.add(values);
  }
  const CoverageResult oracle = simulate_serial(nl, u.collapsed(), ps);
  const CoverageResult got =
      simulate_seq_parallel(nl, u.collapsed(), st, {}, {.num_threads = 2});
  expect_same_flags(oracle, got, nl, u.collapsed(), "seq on comb");
}

// ---- work counts of the grading kernels ------------------------------------
//
// grade_seq regroups the surviving faults into fewer lane batches every
// detail::kRepackSegment cycles; grade_cpt flips each region head that
// still has a live fault once per block group. The random suites above grade
// fewer faults than one W=4 batch and only a block or two, so these tests
// use rtlgen components with more than 255 reachable faults, data that
// detects most of them early, and at least one fault that is never detected
// (it stays live to the end). Each pins the flags to the serial oracle and
// checks that the kernel did exactly the work the oracle's prefix flags
// predict.

/// Counts evaluations (eval() or cone sweep() calls), i.e. lane-batch
/// steps.
template <class Ev>
class CountingEvaluator : public Ev {
 public:
  using Ev::Ev;
  void eval() {
    ++evals;
    Ev::eval();
  }
  void sweep(const std::vector<NetId>& gates) {
    ++evals;
    Ev::sweep(gates);
  }
  std::size_t evals = 0;
};

using Rows = std::vector<std::vector<PortValue>>;

Rows random_rows(Rng& rng, const Netlist& nl, std::size_t count) {
  Rows rows(count);
  for (std::vector<PortValue>& row : rows) {
    for (const netlist::Port& p : nl.input_ports()) {
      row.emplace_back(p.name, rng.next64());
    }
  }
  return rows;
}

/// The first `n` rows as a clocked stimulus; every fourth cycle is not
/// observed.
SeqStimulus stimulus_prefix(const Netlist& nl, const Rows& rows,
                            std::size_t n) {
  SeqStimulus st(nl);
  for (std::size_t c = 0; c < n; ++c) st.add_cycle(rows[c], c % 4 != 3);
  return st;
}

PatternSet patterns_prefix(const Netlist& nl, const Rows& rows,
                           std::size_t n) {
  PatternSet ps(nl);
  for (std::size_t p = 0; p < n; ++p) ps.add(rows[p]);
  return ps;
}

/// What drop-and-repack must cost on one chunk of `faults`. Segment k runs
/// one eval per step for every batch the reachable faults still undetected
/// at its start need (`detected_at[k]`: the oracle's flags on the first k
/// segments); `repacks` counts the segments that start with fewer batches
/// than the one before.
struct RepackWork {
  std::size_t first_batches = 0;
  std::size_t evals = 0;
  std::size_t repacks = 0;
};

RepackWork expected_work(const std::vector<Fault>& faults,
                         const std::uint8_t* reach,
                         const std::vector<std::vector<std::uint8_t>>&
                             detected_at,
                         std::size_t steps, std::size_t fault_lanes) {
  RepackWork work;
  std::size_t batches = 0;
  for (std::size_t k = 0; k * detail::kRepackSegment < steps; ++k) {
    std::size_t live = 0;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      live += reach[faults[f].site.gate] && !detected_at[k][f];
    }
    if (live == 0) break;
    const std::size_t b = detail::batch_count(live, fault_lanes);
    if (k == 0) work.first_batches = b;
    if (k > 0 && b < batches) ++work.repacks;
    batches = b;
    const std::size_t s0 = k * detail::kRepackSegment;
    work.evals += b * (std::min(steps, s0 + detail::kRepackSegment) - s0);
  }
  return work;
}

/// Oracle flags on every boundary prefix: entry k holds the faults detected
/// within the first k * `segment` steps.
template <class OracleOnPrefix>
std::vector<std::vector<std::uint8_t>> detected_at_boundaries(
    std::size_t n_faults, std::size_t steps, std::size_t segment,
    const OracleOnPrefix& oracle) {
  std::vector<std::vector<std::uint8_t>> out{
      std::vector<std::uint8_t>(n_faults, 0)};
  for (std::size_t b = segment; b < steps; b += segment) {
    out.push_back(oracle(b).detected_flags);
  }
  return out;
}

/// Asserts the oracle leaves at least one reachable fault undetected, so
/// lanes survive to the last step and every repack is a real regrouping.
void expect_reachable_survivor(const std::vector<Fault>& faults,
                               const std::uint8_t* reach,
                               const CoverageResult& oracle,
                               const char* label) {
  std::size_t survivors = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    survivors += reach[faults[f].site.gate] && !oracle.detected_flags[f];
  }
  EXPECT_GT(survivors, 0u) << label;
}

/// Runs one lane-packed kernel over the whole fault list as a single chunk
/// on a counting W-word evaluator; checks flags and work.
template <unsigned W, class Kernel>
void expect_kernel_repacks(const netlist::CompiledNetlist& cn,
                           const CoverageResult& oracle,
                           const RepackWork& work, const Kernel& kernel,
                           const std::string& label) {
  CountingEvaluator<netlist::CompiledEvaluatorT<W>> ev(cn);
  std::vector<std::uint8_t> flags(oracle.detected_flags.size(), 0);
  kernel(ev, flags.data());
  EXPECT_EQ(flags, oracle.detected_flags) << label;
  EXPECT_GE(work.first_batches, 2u) << label;
  EXPECT_GE(work.repacks, 2u) << label;
  EXPECT_EQ(ev.evals, work.evals) << label;
}

/// A windowed fault that is still undetected at a segment boundary and
/// whose force is on both at the boundary's last step and its first one,
/// so the kernel re-arms it mid-window after a repack.
bool window_straddles_a_boundary(
    const std::vector<Fault>& faults, const std::uint8_t* reach,
    const std::vector<std::vector<std::uint8_t>>& detected_at) {
  for (std::size_t k = 1; k < detected_at.size(); ++k) {
    const std::uint64_t t = k * detail::kRepackSegment;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (!reach[faults[f].site.gate] || detected_at[k][f]) continue;
      const std::uint64_t key = fault_stream_key(faults[f]);
      if (fault_active(key, faults[f].model, t - 1) &&
          fault_active(key, faults[f].model, t)) {
        return true;
      }
    }
  }
  return false;
}

void check_seq_repack(FaultModel model) {
  const Netlist nl = rtlgen::build_regfile({.num_regs = 8, .width = 8});
  Rng rng(0x5e9 + static_cast<unsigned>(model));
  const Rows rows = random_rows(rng, nl, 128);
  const SeqStimulus st = stimulus_prefix(nl, rows, rows.size());
  const FaultUniverse u(nl, model);
  const std::vector<Fault>& faults = u.collapsed();
  const std::string name = fault_model_name(model);

  const CoverageResult oracle = simulate_serial(nl, faults, st);
  for (unsigned lanes : {1u, 4u}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      const SimOptions opt{
          .num_threads = threads, .engine = Engine::kEvent, .lanes = lanes};
      const std::string label = name + "/l" + std::to_string(lanes) + "/t" +
                                std::to_string(threads);
      expect_same_flags(oracle,
                        simulate_seq_parallel(nl, faults, st, {}, opt), nl,
                        faults, label.c_str());
    }
  }

  const netlist::CompiledNetlist cn(nl, netlist::CompileOptions::all());
  const ObserveSet observe = nl.output_nets();
  const std::vector<std::uint8_t> reach = cn.fanin_cone(observe);
  expect_reachable_survivor(faults, reach.data(), oracle, name.c_str());
  const auto detected_at = detected_at_boundaries(
      faults.size(), st.size(), detail::kRepackSegment, [&](std::size_t n) {
        return simulate_serial(nl, faults, stimulus_prefix(nl, rows, n));
      });
  if (model != FaultModel::kStuckAt) {
    EXPECT_TRUE(window_straddles_a_boundary(faults, reach.data(), detected_at))
        << name;
  }
  const detail::SeqTrace trace = detail::make_seq_trace(nl, &cn, st);
  auto kernel = [&](auto& ev, std::uint8_t* flags) {
    detail::with_activation(detail::activation_of(faults), [&](auto tag) {
      detail::grade_seq<decltype(tag)::value>(ev, faults, 0, faults.size(),
                                              st, observe, trace,
                                              reach.data(), flags);
    });
  };
  expect_kernel_repacks<1>(
      cn, oracle,
      expected_work(faults, reach.data(), detected_at, st.size(), 63), kernel,
      name + "/W1");
  expect_kernel_repacks<4>(
      cn, oracle,
      expected_work(faults, reach.data(), detected_at, st.size(), 255),
      kernel, name + "/W4");
}

TEST(FaultRepack, SeqStuckAtMatchesSerialOracle) {
  check_seq_repack(FaultModel::kStuckAt);
}

TEST(FaultRepack, SeqTransientMatchesSerialOracle) {
  check_seq_repack(FaultModel::kTransientSEU);
}

TEST(FaultRepack, SeqIntermittentMatchesSerialOracle) {
  check_seq_repack(FaultModel::kIntermittent);
}

/// Each net's fanout-free region head, found by walking single-reader nets
/// forward until a net with fanout other than 1, an observed net or an
/// input: the region structure critical-path tracing must flip once each.
std::vector<NetId> region_heads(const Netlist& nl, const ObserveSet& observe) {
  const std::vector<std::uint32_t> fanout = nl.fanout_counts();
  std::vector<NetId> reader(nl.size(), netlist::kNoNet);
  for (NetId g = 0; g < nl.size(); ++g) {
    for (unsigned p = 0; p < netlist::fanin_count(nl.gate(g).kind); ++p) {
      reader[nl.gate(g).in[p]] = g;
    }
  }
  std::vector<std::uint8_t> cut(nl.size(), 0);
  for (NetId n = 0; n < nl.size(); ++n) {
    cut[n] = fanout[n] != 1 || nl.gate(n).kind == GateKind::kInput;
  }
  for (NetId n : observe) cut[n] = 1;
  std::vector<NetId> head(nl.size());
  for (NetId n = 0; n < nl.size(); ++n) {
    NetId h = n;
    while (!cut[h]) h = reader[h];
    head[n] = h;
  }
  return head;
}

/// Flips grade_cpt must make per block group: block group k flips every
/// region head with a reachable fault the oracle leaves undetected on the
/// first k groups, and the kernel stops once none is left.
std::vector<std::size_t> expected_flips(
    const std::vector<Fault>& faults, const std::uint8_t* reach,
    const std::vector<NetId>& head,
    const std::vector<std::vector<std::uint8_t>>& detected_at) {
  std::vector<std::size_t> flips;
  for (const std::vector<std::uint8_t>& detected : detected_at) {
    std::vector<NetId> live_heads;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (reach[faults[f].site.gate] && !detected[f]) {
        live_heads.push_back(head[faults[f].site.gate]);
      }
    }
    if (live_heads.empty()) break;
    std::sort(live_heads.begin(), live_heads.end());
    flips.push_back(static_cast<std::size_t>(
        std::unique(live_heads.begin(), live_heads.end()) -
        live_heads.begin()));
  }
  return flips;
}

/// Runs grade_cpt over the whole fault list as one chunk on a counting
/// W-word evaluator: flags match the oracle, the flips per block group match
/// `flips`, and the evaluator ran one good sweep per group plus one eval per
/// flip.
template <unsigned W>
void expect_cpt_work(const netlist::CompiledNetlist& cn,
                     const std::vector<Fault>& faults, const PatternSet& ps,
                     const ObserveSet& observe, const std::uint8_t* reach,
                     const CoverageResult& oracle,
                     const std::vector<std::size_t>& flips,
                     const std::string& label) {
  const detail::CptTables cpt =
      detail::make_cpt_tables(cn.netlist(), ps, observe);
  CountingEvaluator<netlist::CompiledEvaluatorT<W>> ev(cn);
  std::vector<std::uint8_t> flags(faults.size(), 0);
  std::vector<std::size_t> got;
  detail::with_any_activation(detail::activation_of(faults), [&](auto tag) {
    got = detail::grade_cpt<decltype(tag)::value>(
        ev, faults, 0, faults.size(), ps, observe, cpt, reach, flags.data());
  });
  EXPECT_EQ(flags, oracle.detected_flags) << label;
  EXPECT_EQ(got, flips) << label;
  std::size_t total = 0;
  for (std::size_t n : got) total += n;
  EXPECT_EQ(ev.evals, got.size() + total) << label;
}

TEST(CptWork, CombFlipsEveryLiveRegionHeadOncePerBlockGroup) {
  const Netlist nl = rtlgen::build_alu({.width = 16});
  Rng rng(0xc0b);
  // 300 patterns: five blocks, the last one padded; two W=4 block groups.
  const Rows rows = random_rows(rng, nl, 300);
  const PatternSet ps = patterns_prefix(nl, rows, rows.size());
  const netlist::CompiledNetlist cn(nl, netlist::CompileOptions::all());
  const ObserveSet observe = nl.output_nets();
  const std::vector<std::uint8_t> reach = cn.fanin_cone(observe);
  const std::vector<NetId> head = region_heads(nl, observe);
  for (FaultModel model : {FaultModel::kStuckAt, FaultModel::kTransition,
                           FaultModel::kTransientSEU,
                           FaultModel::kIntermittent}) {
    const FaultUniverse u(nl, model);
    const std::vector<Fault>& faults = u.collapsed();
    const std::string name = fault_model_name(model);
    const CoverageResult oracle = simulate_serial(nl, faults, ps);
    for (unsigned lanes : {1u, 4u}) {
      for (unsigned threads : {1u, 2u, 8u}) {
        const SimOptions opt{.num_threads = threads,
                             .lane_parallel = true,
                             .engine = Engine::kEvent,
                             .lanes = lanes};
        const std::string label = name + "/l" + std::to_string(lanes) +
                                  "/t" + std::to_string(threads);
        expect_same_flags(oracle,
                          simulate_comb_parallel(nl, faults, ps, {}, opt), nl,
                          faults, label.c_str());
      }
    }
    expect_reachable_survivor(faults, reach.data(), oracle, name.c_str());
    auto prefix_oracle = [&](std::size_t n) {
      return simulate_serial(nl, faults, patterns_prefix(nl, rows, n));
    };
    const std::vector<std::size_t> flips1 = expected_flips(
        faults, reach.data(), head,
        detected_at_boundaries(faults.size(), ps.size(), 64, prefix_oracle));
    const std::vector<std::size_t> flips4 = expected_flips(
        faults, reach.data(), head,
        detected_at_boundaries(faults.size(), ps.size(), 256, prefix_oracle));
    ASSERT_EQ(flips1.size(), 5u) << name;
    ASSERT_EQ(flips4.size(), 2u) << name;
    EXPECT_LT(flips1.back(), flips1.front()) << name;  // heads drop out
    expect_cpt_work<1>(cn, faults, ps, observe, reach.data(), oracle, flips1,
                       name + "/W1");
    expect_cpt_work<4>(cn, faults, ps, observe, reach.data(), oracle, flips4,
                       name + "/W4");
  }
}

// ---- CoverageResult invariant ----------------------------------------------

TEST(CoverageResult, RecountDerivesDetectedFromFlags) {
  CoverageResult res;
  res.total = 5;
  res.detected_flags = {1, 0, 1, 1, 0};
  res.detected = 12345;  // stale on purpose
  res.recount();
  EXPECT_EQ(res.detected, 3u);
  res.detected_flags.assign(4, 0);
  res.recount();
  EXPECT_EQ(res.detected, 0u);
}

TEST(CoverageResult, MergeKeepsInvariant) {
  CoverageResult a, b;
  a.total = b.total = 4;
  a.detected_flags = {1, 0, 0, 1};
  b.detected_flags = {0, 1, 0, 1};
  a.recount();
  b.recount();
  a.merge(b);
  expect_invariant(a);
  EXPECT_EQ(a.detected, 3u);
}

// ---- observe sets the compiled program never evaluates --------------------

/// Six gates: a buffer (n2) that inverter fusion bypasses on its only
/// reader, and an internal chain (n4 -> n5) that no declared output reads.
/// With netlist passes on, the dead sweep drops both from the compiled
/// program.
struct SweptObserveShape {
  Netlist nl{"swept_observe"};
  NetId n2 = netlist::kNoNet, n3 = netlist::kNoNet, n5 = netlist::kNoNet,
        n6 = netlist::kNoNet;

  SweptObserveShape() {
    const NetId a = nl.input("a"), b = nl.input("b"), c = nl.input("c");
    const NetId n1 = nl.and_(a, b);
    n2 = nl.buf(n1);
    n3 = nl.or_(n2, c);
    const NetId n4 = nl.xor_(a, c);
    n5 = nl.not_(n4);
    n6 = nl.nand_(n1, c);
    nl.output("o3", n3);
    nl.output("o6", n6);
  }
};

void expect_swept_observe_rejected(const std::function<void()>& grade,
                                   NetId net, const char* label) {
  try {
    grade();
    ADD_FAILURE() << label << ": observing net " << net << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("observe net " + std::to_string(net)),
              std::string::npos)
        << label << ": " << e.what();
  }
}

TEST(SweptObserve, EventEngineRejectsNetsItNeverEvaluates) {
  SweptObserveShape s;
  FaultUniverse u(s.nl);
  const std::vector<Fault>& faults = u.collapsed();
  Rng rng(61);
  const PatternSet ps = random_patterns(rng, s.nl, 8);
  const SeqStimulus st = random_stimulus(rng, s.nl, 8);
  const ObserveSet fused{s.n3, s.n2};
  const ObserveSet dead{s.n6, s.n5};
  const SimOptions two{.num_threads = 2};
  for (const auto& [obs, net] :
       {std::pair{fused, s.n2}, std::pair{dead, s.n5}}) {
    // Netlist passes on (the default): a structured error naming the net.
    expect_swept_observe_rejected(
        [&] { simulate_comb_parallel(s.nl, faults, ps, obs, two); }, net,
        "comb");
    expect_swept_observe_rejected(
        [&] { simulate_seq_parallel(s.nl, faults, st, obs, two); }, net,
        "seq");
    // Passes off and the reference engine evaluate every net: the oracle's
    // flags, which the swept program would have under-reported.
    const CoverageResult comb_oracle = simulate_serial(s.nl, faults, ps, obs);
    const CoverageResult seq_oracle = simulate_serial(s.nl, faults, st, obs);
    for (const SimOptions& o :
         {SimOptions{.num_threads = 2, .netlist_opt = 0},
          SimOptions{.num_threads = 2, .engine = Engine::kReference}}) {
      expect_same_flags(comb_oracle,
                        simulate_comb_parallel(s.nl, faults, ps, obs, o), s.nl,
                        faults, "comb/unswept");
      expect_same_flags(seq_oracle,
                        simulate_seq_parallel(s.nl, faults, st, obs, o), s.nl,
                        faults, "seq/unswept");
    }
  }
  // Declared outputs stay accepted with passes on.
  expect_same_flags(simulate_serial(s.nl, faults, ps),
                    simulate_comb_parallel(s.nl, faults, ps, {}, two), s.nl,
                    faults, "comb/outputs");
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (unsigned threads : {1u, 2u, 5u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<int> hits(1000, 0);
    pool.run(hits.size(), [&](std::size_t t) { ++hits[t]; });
    for (int h : hits) EXPECT_EQ(h, 1);
    // The pool is reusable.
    pool.run(hits.size(), [&](std::size_t t) { ++hits[t]; });
    for (int h : hits) EXPECT_EQ(h, 2);
  }
}

TEST(ThreadPool, BlockedTaskDoesNotStallLaterTasks) {
  // Task 0 waits (a few seconds at most) until task 2 has run. A fixed
  // stride at 2 threads deals both to the same worker, so task 2 could only
  // start after task 0 gave up; claim-next hands it to the free worker.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool ran2 = false;
  bool waited_for_2 = false;
  pool.run(3, [&](std::size_t t) {
    std::unique_lock<std::mutex> lock(mu);
    if (t == 0) {
      waited_for_2 =
          cv.wait_for(lock, std::chrono::seconds(5), [&] { return ran2; });
    } else if (t == 2) {
      ran2 = true;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(waited_for_2) << "task 2 did not run while task 0 was blocked";
}

TEST(ThreadPool, ResolveThreadCountPrefersExplicit) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST(ThreadPool, ParseThreadCountAcceptsOnlyWholeDecimalsInRange) {
  const std::string too_many = std::to_string(kMaxThreads + 1);
  unsigned n = 7;
  EXPECT_TRUE(parse_thread_count("4", n));
  EXPECT_EQ(n, 4u);
  EXPECT_TRUE(parse_thread_count(std::to_string(kMaxThreads), n));
  EXPECT_EQ(n, kMaxThreads);
  for (const std::string& bad :
       {std::string("4x"), std::string(""), std::string("0"),
        std::string("-1"), std::string(" 4"), std::string("+4"), too_many,
        std::string("99999999999")}) {
    n = 7;
    EXPECT_FALSE(parse_thread_count(bad, n)) << '"' << bad << '"';
    EXPECT_EQ(n, 7u) << '"' << bad << '"';
  }
}

TEST(ThreadPool, ResolveThreadCountFallsBackOnBadEnvironment) {
  // Resolving a count starts no threads, so even a huge request is safe
  // to check here.
  const char* saved = std::getenv("SBST_THREADS");
  const std::string restore = saved ? saved : "";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  setenv("SBST_THREADS", "4", 1);
  EXPECT_EQ(resolve_thread_count(0), 4u);
  EXPECT_EQ(resolve_thread_count(2), 2u);  // an explicit count wins
  for (const std::string& bad :
       {std::string("4x"), std::string(""), std::string("0"),
        std::string("-1"), std::to_string(kMaxThreads + 1),
        std::string("99999999999")}) {
    setenv("SBST_THREADS", bad.c_str(), 1);
    EXPECT_EQ(resolve_thread_count(0), hw) << '"' << bad << '"';
  }
  if (saved) {
    setenv("SBST_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("SBST_THREADS");
  }
}

TEST(ThreadPool, ThrowingTaskIsCapturedAndBatchCompletes) {
  for (unsigned threads : {1u, 3u}) {
    ThreadPool pool(threads);
    std::vector<int> hits(64, 0);
    const std::vector<ThreadPool::TaskFailure> failures =
        pool.run_capture(hits.size(), [&](std::size_t t) {
          if (t == 5 || t == 40) throw std::runtime_error("task failed");
          ++hits[t];
        });
    // Exactly the throwing tasks are reported, in index order, and every
    // other task still ran exactly once.
    ASSERT_EQ(failures.size(), 2u) << "threads " << threads;
    EXPECT_EQ(failures[0].task, 5u);
    EXPECT_EQ(failures[1].task, 40u);
    for (const ThreadPool::TaskFailure& fail : failures) {
      ASSERT_TRUE(fail.error);
      EXPECT_THROW(std::rethrow_exception(fail.error), std::runtime_error);
    }
    for (std::size_t t = 0; t < hits.size(); ++t) {
      EXPECT_EQ(hits[t], (t == 5 || t == 40) ? 0 : 1) << "task " << t;
    }
    // The pool stays usable after a failed batch.
    const auto clean =
        pool.run_capture(hits.size(), [&](std::size_t t) { ++hits[t]; });
    EXPECT_TRUE(clean.empty());
    for (std::size_t t = 0; t < hits.size(); ++t) {
      EXPECT_EQ(hits[t], (t == 5 || t == 40) ? 1 : 2);
    }
  }
}

TEST(ThreadPool, RunRethrowsLowestIndexAfterFinishingBatch) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.run(32, [&](std::size_t t) {
      if (t == 7) throw std::logic_error("seven");
      if (t == 3) throw std::runtime_error("three");
      ++ran;
    });
    FAIL() << "run swallowed the task exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "three");  // lowest failing index wins
  }
  // Every non-throwing task completed before the rethrow.
  EXPECT_EQ(ran.load(), 30);
  // And the pool still works.
  pool.run(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 38);
}

TEST(GradingPlan, RunCaptureReportsAddTaskByAddOrderIndexAfterPreparation) {
  // add_comb and add_seq register preparation (critical-path tables, a
  // fault-free trace) that run() builds as a batch ahead of the queued
  // tasks; a failing extra task is still reported by its add-order index.
  Rng rng(91);
  const Netlist comb = random_comb_netlist(rng, 6, 60);
  const Netlist seq = random_seq_netlist(rng, 4, 6, 60);
  const FaultUniverse uc(comb), us(seq);
  const PatternSet ps = random_patterns(rng, comb, 100);
  const SeqStimulus st = random_stimulus(rng, seq, 20);
  const CoverageResult comb_oracle = simulate_serial(comb, uc.collapsed(), ps);
  const CoverageResult seq_oracle = simulate_serial(seq, us.collapsed(), st);
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const EngineContext cctx(Engine::kEvent, comb, {});
    const EngineContext sctx(Engine::kEvent, seq, {});
    GradingPlan plan;
    CoverageResult rc, rs;
    plan.add_comb(cctx, uc.collapsed(), ps, true, rc);
    plan.add_seq(sctx, us.collapsed(), st, rs);
    const std::size_t throwing = plan.size();
    plan.add_task([] { throw std::runtime_error("extra task failed"); });
    std::atomic<int> after{0};
    plan.add_task([&] { ++after; });
    const std::vector<ThreadPool::TaskFailure> failures =
        plan.run_capture(pool);
    ASSERT_EQ(failures.size(), 1u) << "threads " << threads;
    EXPECT_EQ(failures[0].task, throwing) << "threads " << threads;
    EXPECT_EQ(after.load(), 1);
    EXPECT_EQ(plan.size(), 0u);
    rc.recount();
    rs.recount();
    expect_same_flags(comb_oracle, rc, comb, uc.collapsed(), "plan/comb");
    expect_same_flags(seq_oracle, rs, seq, us.collapsed(), "plan/seq");
  }
}

TEST(GradingPlan, FailedPreparationThrowsBeforeAnyQueuedTaskRuns) {
  // A trace build that throws (a stimulus written for a netlist of another
  // input width) fails run_capture before any chunk or extra task runs, in
  // capture mode too, and leaves the plan empty and reusable.
  Rng rng(92);
  const Netlist seq = random_seq_netlist(rng, 4, 6, 60);
  const Netlist wider = random_seq_netlist(rng, 5, 6, 60);
  const FaultUniverse us(seq);
  const SeqStimulus st = random_stimulus(rng, wider, 20);
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const EngineContext sctx(Engine::kEvent, seq, {});
    GradingPlan plan;
    std::atomic<int> ran{0};
    plan.add_task([&] { ++ran; });
    CoverageResult rs;
    plan.add_seq(sctx, us.collapsed(), st, rs);
    plan.add_task([&] { ++ran; });
    EXPECT_THROW(plan.run_capture(pool), std::invalid_argument)
        << "threads " << threads;
    EXPECT_EQ(ran.load(), 0) << "threads " << threads;
    EXPECT_EQ(plan.size(), 0u);
    plan.add_task([&] { ++ran; });
    EXPECT_TRUE(plan.run_capture(pool).empty());
    EXPECT_EQ(ran.load(), 1) << "threads " << threads;
  }
}

}  // namespace
}  // namespace sbst::fault

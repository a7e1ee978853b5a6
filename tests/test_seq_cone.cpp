// Cone-restricted sequential grading (grade_seq with a SeqTrace).
//
// SeqConeDifferential: every shape the cone cut and its boundary must get
// right — faults on primary inputs (the cone is everything downstream), on
// flip-flop outputs and D pins, on constants that const-prop folded away,
// inverter chains that fusion bypassed between flip-flops, observe sets
// with a flip-flop output and an internal net, and stimuli that end inside,
// on and just past a repack segment — graded under every sequential fault
// model, lane width, thread count and netlist-pass setting and on the
// reference engine, must flag exactly the faults the serial oracle flags.
// The fault lists are uncollapsed (every gate output and every input pin,
// both polarities).
//
// SeqConeWork: the kernel sweeps exactly each batch's live cone, found here
// by an independent forward walk, so the gain cannot silently fall back to
// full sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_detail.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"
#include "rtlgen/regfile.hpp"

namespace sbst::fault {
namespace {

using netlist::GateKind;
using netlist::NetId;
using netlist::Netlist;
using netlist::Site;

constexpr FaultModel kSeqModels[] = {FaultModel::kStuckAt,
                                     FaultModel::kTransientSEU,
                                     FaultModel::kIntermittent};

/// Every stuck site of `nl` under `model`: each gate output and each input
/// pin (a flip-flop's D pin included), at both values.
std::vector<Fault> all_faults(const Netlist& nl, FaultModel model) {
  std::vector<Fault> faults;
  for (NetId g = 0; g < nl.size(); ++g) {
    std::vector<Site> sites{{g, Site::kOutputPin}};
    for (unsigned p = 0; p < netlist::fanin_count(nl.gate(g).kind); ++p) {
      sites.push_back({g, static_cast<std::uint8_t>(p)});
    }
    for (const Site& site : sites) {
      for (bool v : {false, true}) faults.push_back({site, v, model});
    }
  }
  return faults;
}

/// A random sequential DAG with constants read by logic (const-prop folds
/// them), flip-flops fed through buf/not chains from other flip-flops
/// (inverter fusion bypasses the chain), and logic reading primary inputs
/// and flip-flops directly.
Netlist cone_dag(Rng& rng) {
  Netlist nl("cone_dag");
  std::vector<NetId> nets;
  for (unsigned i = 0; i < 5; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  nets.push_back(nl.constant(false));
  nets.push_back(nl.constant(true));
  std::vector<NetId> qs;
  for (unsigned i = 0; i < 6; ++i) {
    qs.push_back(nl.dff("q" + std::to_string(i)));
    nets.push_back(qs.back());
  }
  auto pick = [&] { return nets[rng.below(nets.size())]; };
  for (unsigned g = 0; g < 50; ++g) {
    NetId n;
    switch (rng.below(8)) {
      case 0: n = nl.not_(pick()); break;
      case 1: n = nl.buf(pick()); break;
      case 2: n = nl.and_(pick(), pick()); break;
      case 3: n = nl.or_(pick(), pick()); break;
      case 4: n = nl.nand_(pick(), pick()); break;
      case 5: n = nl.xor_(pick(), pick()); break;
      case 6: n = nl.nor_(pick(), pick()); break;
      default: n = nl.mux2(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  for (std::size_t i = 0; i < qs.size(); ++i) {
    // Even flip-flops read an inverter chain from the previous flip-flop.
    NetId d = i % 2 == 0 ? qs[(i + qs.size() - 1) % qs.size()] : pick();
    if (i % 2 == 0) {
      for (unsigned hop = 0; hop < 1 + rng.below(3); ++hop) {
        d = rng.chance(0.5) ? nl.not_(d) : nl.buf(d);
      }
    }
    nl.connect_dff(qs[i], d);
  }
  unsigned n_outputs = 0;
  for (std::size_t i = nets.size() - 50; i < nets.size(); ++i) {
    if (i + 3 >= nets.size() || rng.chance(0.15)) {
      nl.output("o" + std::to_string(n_outputs++), nets[i]);
    }
  }
  return nl;
}

/// `cycles` random cycles; every fifth one is not observed.
SeqStimulus random_stimulus(const Netlist& nl, std::size_t cycles,
                            std::uint64_t seed) {
  Rng rng(seed);
  SeqStimulus st(nl);
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<PortValue> values;
    for (const netlist::Port& p : nl.input_ports()) {
      values.emplace_back(p.name, rng.next64());
    }
    st.add_cycle(values, c % 5 != 4);
  }
  return st;
}

/// Grades every sequential model with the production kernel at W=1 and
/// W=4, on 1, 2 and 8 threads, with netlist passes on and off, plus once on
/// the reference engine, and demands the oracle's flags.
void expect_matches_oracle(const Netlist& nl, const SeqStimulus& st,
                           const ObserveSet& observe,
                           const std::string& name) {
  for (FaultModel model : kSeqModels) {
    const std::vector<Fault> faults = all_faults(nl, model);
    const CoverageResult oracle = simulate_serial(nl, faults, st, observe);
    auto check = [&](const SimOptions& opt, const std::string& config) {
      const CoverageResult got =
          simulate_seq_parallel(nl, faults, st, observe, opt);
      const std::string label =
          name + "/" + fault_model_name(model) + "/" + config;
      ASSERT_EQ(got.detected_flags.size(), faults.size()) << label;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        EXPECT_EQ(got.detected_flags[f], oracle.detected_flags[f])
            << label << " " << fault_name(nl, faults[f]);
      }
      EXPECT_EQ(got.detected, oracle.detected) << label;
    };
    for (int netlist_opt : {0, 1}) {
      for (unsigned lanes : {1u, 4u}) {
        for (unsigned threads : {1u, 2u, 8u}) {
          check({.num_threads = threads,
                 .engine = Engine::kEvent,
                 .lanes = lanes,
                 .netlist_opt = netlist_opt},
                "opt" + std::to_string(netlist_opt) + "/l" +
                    std::to_string(lanes) + "/t" + std::to_string(threads));
        }
      }
    }
    check({.num_threads = 2, .engine = Engine::kReference}, "reference");
    // Not vacuous: some faults detected, some not.
    EXPECT_GT(oracle.detected, 0u) << name << "/" << fault_model_name(model);
    EXPECT_LT(oracle.detected, faults.size())
        << name << "/" << fault_model_name(model);
  }
}

/// Grades the faults on each gate kind on their own, and those on each
/// flip-flop alone (its D net then lies outside the cone unless fed back),
/// so that batches hold only constants, only inverter chains and so on,
/// and demands the oracle's flags on W=1 and W=4 with netlist passes and on
/// the reference engine.
void expect_kinds_match_oracle(const Netlist& nl, const SeqStimulus& st,
                               const std::string& name) {
  // Groups [0, kKinds) by gate kind, then one per flip-flop.
  constexpr std::size_t kKinds = static_cast<std::size_t>(GateKind::kDff) + 1;
  for (FaultModel model : kSeqModels) {
    std::vector<std::vector<Fault>> groups(kKinds + nl.dffs().size());
    for (const Fault& f : all_faults(nl, model)) {
      const GateKind kind = nl.gate(f.site.gate).kind;
      groups[static_cast<std::size_t>(kind)].push_back(f);
      if (kind != GateKind::kDff) continue;
      const auto q = std::find(nl.dffs().begin(), nl.dffs().end(),
                               f.site.gate);
      groups[kKinds + (q - nl.dffs().begin())].push_back(f);
    }
    for (const std::vector<Fault>& faults : groups) {
      if (faults.empty()) continue;
      const CoverageResult oracle = simulate_serial(nl, faults, st);
      const std::string label =
          name + "/" + fault_model_name(model) + "/" +
          fault_name(nl, faults.front());
      for (const SimOptions& opt :
           {SimOptions{.num_threads = 1, .lanes = 1},
            SimOptions{.num_threads = 1, .lanes = 4},
            SimOptions{.num_threads = 1, .engine = Engine::kReference}}) {
        EXPECT_EQ(simulate_seq_parallel(nl, faults, st, {}, opt)
                      .detected_flags,
                  oracle.detected_flags)
            << label << "/l" << opt.lanes << "/"
            << engine_name(opt.engine);
      }
    }
  }
}

TEST(SeqConeDifferential, RandomDagsAtSegmentEdges) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const Netlist nl = cone_dag(rng);
    for (std::size_t cycles : {15u, 16u, 17u, 40u}) {
      const SeqStimulus st = random_stimulus(nl, cycles, seed * 100 + cycles);
      const std::string name =
          "dag" + std::to_string(seed) + "/c" + std::to_string(cycles);
      expect_matches_oracle(nl, st, {}, name);
      expect_kinds_match_oracle(nl, st, name);
    }
  }
}

TEST(SeqConeDifferential, ObservesFlipFlopAndInternalNet) {
  Rng rng(7);
  const Netlist nl = cone_dag(rng);
  // A flip-flop output and a logic gate that some output reads, so both
  // stay live under the dead-gate sweep.
  const std::vector<std::uint8_t> live =
      netlist::CompiledNetlist(nl).fanin_cone(nl.output_nets());
  ASSERT_TRUE(live[nl.dffs()[1]]);
  ObserveSet observe{nl.dffs()[1]};
  for (NetId g = 0; g < nl.size(); ++g) {
    const GateKind kind = nl.gate(g).kind;
    if (live[g] && (kind == GateKind::kAnd || kind == GateKind::kOr ||
                    kind == GateKind::kXor || kind == GateKind::kMux2)) {
      observe.push_back(g);
      break;
    }
  }
  ASSERT_EQ(observe.size(), 2u);
  for (std::size_t cycles : {17u, 40u}) {
    expect_matches_oracle(nl, random_stimulus(nl, cycles, 70 + cycles),
                          observe, "observe/c" + std::to_string(cycles));
  }
}

TEST(SeqConeDifferential, RegisterFile8x4) {
  const Netlist nl = rtlgen::build_regfile({.num_regs = 8, .width = 4});
  for (std::size_t cycles : {17u, 40u}) {
    const SeqStimulus st = random_stimulus(nl, cycles, 80 + cycles);
    const std::string name = "rf8x4/c" + std::to_string(cycles);
    expect_matches_oracle(nl, st, {}, name);
    expect_kinds_match_oracle(nl, st, name);
  }
}

// ---- work ------------------------------------------------------------------

/// Records the size of every cone sweep.
template <class Ev>
class SweepRecorder : public Ev {
 public:
  using Ev::Ev;
  void sweep(const std::vector<NetId>& gates) {
    sizes.push_back(gates.size());
    Ev::sweep(gates);
  }
  std::vector<std::size_t> sizes;
};

/// Live gates of `cn` that the faults `seeds` reach forward over the
/// original netlist edges, flip-flops included: an independent cone walk.
std::size_t cone_size(const Netlist& nl, const netlist::CompiledNetlist& cn,
                      const std::vector<Fault>& faults,
                      const std::vector<std::size_t>& seeds) {
  std::vector<std::vector<NetId>> readers(nl.size());
  for (NetId g = 0; g < nl.size(); ++g) {
    for (unsigned p = 0; p < netlist::fanin_count(nl.gate(g).kind); ++p) {
      readers[nl.gate(g).in[p]].push_back(g);
    }
  }
  std::vector<std::uint8_t> in(nl.size(), 0);
  std::vector<NetId> stack;
  for (std::size_t f : seeds) stack.push_back(faults[f].site.gate);
  while (!stack.empty()) {
    const NetId g = stack.back();
    stack.pop_back();
    if (in[g]) continue;
    in[g] = 1;
    for (NetId r : readers[g]) stack.push_back(r);
  }
  std::size_t n = 0;
  for (NetId g : cn.order()) n += in[g];
  return n;
}

/// Runs grade_seq on `faults` as one chunk at lane width W and returns the
/// sweep sizes, after checking its flags against the oracle.
template <unsigned W>
std::vector<std::size_t> sweeps(const Netlist& nl,
                                const netlist::CompiledNetlist& cn,
                                const std::vector<Fault>& faults,
                                const SeqStimulus& st,
                                const CoverageResult& oracle) {
  const ObserveSet observe = nl.output_nets();
  const std::vector<std::uint8_t> reach = cn.fanin_cone(observe);
  const detail::SeqTrace trace = detail::make_seq_trace(nl, &cn, st);
  SweepRecorder<netlist::CompiledEvaluatorT<W>> ev(cn);
  std::vector<std::uint8_t> flags(faults.size(), 0);
  detail::with_activation(detail::activation_of(faults), [&](auto tag) {
    detail::grade_seq<decltype(tag)::value>(ev, faults, 0, faults.size(), st,
                                            observe, trace, reach.data(),
                                            flags.data());
  });
  EXPECT_EQ(flags, oracle.detected_flags) << "W=" << W;
  std::size_t total = 0;
  for (std::size_t s : ev.sizes) total += s;
  EXPECT_EQ(ev.gate_evals(), total) << "W=" << W;
  return ev.sizes;
}

/// The sweep sizes grade_seq must produce on one chunk: segment k runs the
/// batches of the live list (reachable faults, repacked in fault-index
/// order whenever the survivors of the oracle's first k segments fit in
/// fewer batches), and each batch sweeps, once per cycle, the cone of its
/// faults still undetected at the segment's start.
std::vector<std::size_t> expected_sweeps(
    const Netlist& nl, const netlist::CompiledNetlist& cn,
    const std::vector<Fault>& faults, const std::uint8_t* reach,
    const SeqStimulus& st, std::size_t fault_lanes,
    const std::vector<std::vector<std::uint8_t>>& detected_at) {
  std::vector<std::size_t> live;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (reach[faults[f].site.gate]) live.push_back(f);
  }
  std::vector<std::size_t> sizes;
  for (std::size_t k = 0; k * detail::kRepackSegment < st.size(); ++k) {
    const std::vector<std::uint8_t>& detected = detected_at[k];
    std::vector<std::size_t> survivors;
    for (std::size_t f : live) {
      if (!detected[f]) survivors.push_back(f);
    }
    if (survivors.empty()) break;
    if (detail::batch_count(survivors.size(), fault_lanes) <
        detail::batch_count(live.size(), fault_lanes)) {
      live = survivors;
    }
    const std::size_t c0 = k * detail::kRepackSegment;
    const std::size_t cycles =
        std::min(st.size(), c0 + detail::kRepackSegment) - c0;
    for (std::size_t first = 0; first < live.size(); first += fault_lanes) {
      std::vector<std::size_t> undetected;
      for (std::size_t p = first;
           p < std::min(live.size(), first + fault_lanes); ++p) {
        if (!detected[live[p]]) undetected.push_back(live[p]);
      }
      sizes.insert(sizes.end(), cycles, cone_size(nl, cn, faults, undetected));
    }
  }
  return sizes;
}

/// The first `n` cycles of `st` as a stimulus of their own.
SeqStimulus prefix(const Netlist& nl, const std::vector<std::vector<PortValue>>&
                                          rows,
                   std::size_t n) {
  SeqStimulus st(nl);
  for (std::size_t c = 0; c < n; ++c) st.add_cycle(rows[c], c % 4 != 3);
  return st;
}

TEST(SeqConeWork, SweepsExactlyEachBatchSegmentsLiveCone) {
  const Netlist nl = rtlgen::build_regfile({.num_regs = 8, .width = 4});
  const netlist::CompiledNetlist cn(nl, netlist::CompileOptions::all());
  const std::vector<std::uint8_t> reach = cn.fanin_cone(nl.output_nets());
  Rng rng(0xc0e);
  std::vector<std::vector<PortValue>> rows(96);
  for (auto& row : rows) {
    for (const netlist::Port& p : nl.input_ports()) {
      row.emplace_back(p.name, rng.next64());
    }
  }
  const SeqStimulus st = prefix(nl, rows, rows.size());
  for (FaultModel model : kSeqModels) {
    const std::vector<Fault> faults = all_faults(nl, model);
    const CoverageResult oracle = simulate_serial(nl, faults, st);
    std::vector<std::vector<std::uint8_t>> detected_at;
    for (std::size_t c = 0; c < st.size(); c += detail::kRepackSegment) {
      detected_at.push_back(
          c == 0 ? std::vector<std::uint8_t>(faults.size(), 0)
                 : simulate_serial(nl, faults, prefix(nl, rows, c))
                       .detected_flags);
    }
    const std::string name = fault_model_name(model);
    const std::vector<std::size_t> w1 = sweeps<1>(nl, cn, faults, st, oracle);
    EXPECT_EQ(w1, expected_sweeps(nl, cn, faults, reach.data(), st, 63,
                                  detected_at))
        << name << "/W1";
    const std::vector<std::size_t> w4 = sweeps<4>(nl, cn, faults, st, oracle);
    EXPECT_EQ(w4, expected_sweeps(nl, cn, faults, reach.data(), st, 255,
                                  detected_at))
        << name << "/W4";
    // Not vacuous: some batch-segment sweeps less than everything.
    EXPECT_LT(*std::min_element(w1.begin(), w1.end()), cn.live_gates())
        << name;
  }
}

TEST(SeqConeWork, OneRegisterBatchSweepsUnderAQuarter) {
  const Netlist nl = rtlgen::build_regfile({.num_regs = 8, .width = 4});
  const netlist::CompiledNetlist cn(nl, netlist::CompileOptions::all());
  // Every fault on register r5's flip-flops (registers r1..r7 are built
  // in order, four bits each) and on the recirculation muxes in front of
  // them.
  std::vector<std::uint8_t> in_reg(nl.size(), 0);
  for (unsigned bit = 0; bit < 4; ++bit) {
    const NetId q = nl.dffs()[(5 - 1) * 4 + bit];
    in_reg[q] = 1;
    in_reg[nl.gate(q).in[0]] = 1;
  }
  std::vector<Fault> faults;
  for (const Fault& f : all_faults(nl, FaultModel::kStuckAt)) {
    if (in_reg[f.site.gate]) faults.push_back(f);
  }
  ASSERT_EQ(faults.size(), 4u * 2 * (2 + 4));  // DFF out + D, mux out + 3 pins
  const SeqStimulus st = random_stimulus(nl, 48, 5);
  const CoverageResult oracle = simulate_serial(nl, faults, st);
  const std::vector<std::size_t> sizes =
      sweeps<4>(nl, cn, faults, st, oracle);
  ASSERT_FALSE(sizes.empty());
  EXPECT_LT(*std::max_element(sizes.begin(), sizes.end()) * 4,
            cn.live_gates());
}

TEST(SeqConeWork, PrimaryInputFaultsSweepEveryLiveGate) {
  // No hardwired register: every live gate is downstream of some input.
  const Netlist nl = rtlgen::build_regfile(
      {.num_regs = 8, .width = 4, .reg0_is_zero = false});
  const netlist::CompiledNetlist cn(nl, netlist::CompileOptions::all());
  std::vector<Fault> faults;
  for (NetId i : nl.inputs()) {
    faults.push_back({{i, Site::kOutputPin}, false, FaultModel::kStuckAt});
  }
  const SeqStimulus st = random_stimulus(nl, 32, 6);
  const CoverageResult oracle = simulate_serial(nl, faults, st);
  const std::vector<std::size_t> sizes =
      sweeps<4>(nl, cn, faults, st, oracle);
  ASSERT_FALSE(sizes.empty());
  EXPECT_EQ(sizes.front(), cn.live_gates());
}

}  // namespace
}  // namespace sbst::fault

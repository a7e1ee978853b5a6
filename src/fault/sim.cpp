#include "fault/sim.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "fault/sim_detail.hpp"
#include "fault/sim_parallel.hpp"

namespace sbst::fault {

using netlist::Evaluator;
using netlist::Netlist;
using netlist::NetId;

namespace detail {

ObserveSet resolve_observe(const Netlist& nl, const ObserveSet& observe) {
  if (!observe.empty()) return observe;
  ObserveSet all = nl.output_nets();
  if (all.empty()) {
    throw std::invalid_argument("fault sim: netlist has no outputs");
  }
  return all;
}

void require_combinational(const Netlist& nl, const char* who) {
  if (!nl.is_combinational()) {
    throw std::invalid_argument(std::string(who) +
                                ": netlist has flip-flops; use simulate_seq");
  }
}

Activation activation_of(const std::vector<Fault>& faults) {
  if (faults.empty()) return Activation::kAlways;
  const FaultModel model = faults.front().model;
  for (const Fault& f : faults) {
    if (f.model != model) {
      throw std::invalid_argument(
          "fault sim: mixed fault models in one grading call; "
          "grade each model separately");
    }
  }
  switch (model) {
    case FaultModel::kStuckAt:
      return Activation::kAlways;
    case FaultModel::kTransition:
      return Activation::kTransition;
    case FaultModel::kTransientSEU:
    case FaultModel::kIntermittent:
      return Activation::kWindowed;
  }
  return Activation::kAlways;
}

GoodBaseline make_good_baseline(const Netlist& nl, const PatternSet& patterns,
                                const ObserveSet& observe) {
  GoodBaseline base;
  const std::size_t n_blocks = patterns.block_count();
  base.vals.resize(n_blocks);
  base.out.resize(n_blocks);
  Evaluator good(nl);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    apply_block(good, patterns, b);
    good.eval();
    base.vals[b].resize(nl.size());
    for (NetId id = 0; id < nl.size(); ++id) {
      base.vals[b][id] = good.value(id);
    }
    base.out[b].resize(observe.size());
    for (std::size_t o = 0; o < observe.size(); ++o) {
      base.out[b][o] = good.value(observe[o]);
    }
  }
  return base;
}

CptTables make_cpt_tables(const Netlist& nl, const PatternSet& patterns,
                          const ObserveSet& observe) {
  CptTables cpt;
  cpt.good = make_good_baseline(nl, patterns, observe);
  // reader[n] = gate * 4 + pin of the one pin that reads net n, or kHead
  // when n is cut: its fanout is not 1, it is observed, or it is an input.
  constexpr std::uint32_t kHead = ~std::uint32_t{0};
  const std::vector<std::uint32_t> fanout = nl.fanout_counts();
  std::vector<std::uint32_t> reader(nl.size(), kHead);
  for (NetId g = 0; g < nl.size(); ++g) {
    const netlist::Gate& gate = nl.gate(g);
    for (unsigned p = 0; p < netlist::fanin_count(gate.kind); ++p) {
      const NetId n = gate.in[p];
      if (n != netlist::kNoNet && fanout[n] == 1) reader[n] = g * 4 + p;
    }
  }
  for (NetId n : observe) reader[n] = kHead;
  for (NetId n : nl.inputs()) reader[n] = kHead;
  // A reader is later in topological order than the net it reads, so one
  // reverse pass resolves heads and sensitivities reader-first.
  const std::vector<NetId>& topo = nl.topo_order();
  cpt.head.resize(nl.size());
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    cpt.head[*it] = reader[*it] == kHead ? *it : cpt.head[reader[*it] / 4];
  }
  cpt.sens.resize(patterns.block_count());
  for (std::size_t b = 0; b < cpt.sens.size(); ++b) {
    const std::uint64_t* vals = cpt.good.vals[b].data();
    std::vector<std::uint64_t>& sens = cpt.sens[b];
    sens.resize(nl.size());
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const std::uint32_t r = reader[*it];
      sens[*it] = r == kHead ? ~std::uint64_t{0}
                             : sens[r / 4] & pin_sensitivity(nl.gate(r / 4),
                                                             r % 4, vals);
    }
  }
  return cpt;
}

SeqTrace make_seq_trace(const Netlist& nl,
                        const netlist::CompiledNetlist* compiled,
                        const SeqStimulus& stimulus) {
  if (stimulus.netlist().inputs().size() != nl.inputs().size()) {
    throw std::invalid_argument(
        "make_seq_trace: the stimulus drives " +
        std::to_string(stimulus.netlist().inputs().size()) +
        " inputs, the netlist has " + std::to_string(nl.inputs().size()));
  }
  SeqTrace t;
  const std::size_t n = nl.size();
  t.order = compiled ? compiled->order() : nl.topo_order();
  t.dffs = compiled ? compiled->dffs() : nl.dffs();

  t.nets = n;
  t.bits.assign(
      (stimulus.size() + kRepackSegment - 1) / kRepackSegment * n, 0);
  auto record = [&](auto& ev) {
    const std::vector<NetId>& inputs = nl.inputs();
    ev.reset_state(false);
    for (std::size_t c = 0; c < stimulus.size(); ++c) {
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        ev.set_net(inputs[k], stimulus.input_bit(c, k));
      }
      ev.sweep(t.order);
      // Unswept nets record whatever stale value they hold; nothing reads
      // them.
      std::uint16_t* window = &t.bits[c / kRepackSegment * n];
      const unsigned bit = c % kRepackSegment;
      for (NetId id = 0; id < n; ++id) {
        window[id] |= static_cast<std::uint16_t>((ev.value(id) & 1u) << bit);
      }
      ev.latch(t.dffs);
    }
  };
  if (compiled) {
    netlist::CompiledEvaluatorT<1> ev(*compiled);
    record(ev);
  } else {
    Evaluator ev(nl);
    record(ev);
  }

  t.read_begin.assign(n + 1, 0);
  for (NetId g = 0; g < n; ++g) {
    const netlist::Gate& gate = nl.gate(g);
    if (gate.kind == netlist::GateKind::kDff) {
      t.reads.push_back(gate.in[0]);
    } else if (compiled) {
      compiled->for_each_read(g, [&](NetId s) { t.reads.push_back(s); });
    } else {
      for (unsigned p = 0; p < netlist::fanin_count(gate.kind); ++p) {
        t.reads.push_back(gate.in[p]);
      }
    }
    t.read_begin[g + 1] = static_cast<std::uint32_t>(t.reads.size());
  }

  t.fan_begin.assign(n + 1, 0);
  for (NetId g = 0; g < n; ++g) {
    const netlist::Gate& gate = nl.gate(g);
    for (unsigned p = 0; p < netlist::fanin_count(gate.kind); ++p) {
      ++t.fan_begin[gate.in[p] + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) t.fan_begin[i + 1] += t.fan_begin[i];
  t.fan.resize(t.fan_begin[n]);
  std::vector<std::uint32_t> cursor(t.fan_begin.begin(), t.fan_begin.end() - 1);
  for (NetId g = 0; g < n; ++g) {
    const netlist::Gate& gate = nl.gate(g);
    for (unsigned p = 0; p < netlist::fanin_count(gate.kind); ++p) {
      t.fan[cursor[gate.in[p]]++] = g;
    }
  }
  return t;
}

void cut_cone(const SeqTrace& t, const Netlist& nl,
              const std::vector<Fault>& faults, const LaneBatch& batch,
              const std::uint8_t* flags, const ObserveSet& observe,
              SeqCone& cone, std::vector<std::uint8_t>& mark) {
  enum : std::uint8_t { kOutside, kReached, kSwept, kBoundary };
  mark.assign(nl.size(), kOutside);
  std::vector<NetId> reached;  // the breadth-first queue
  auto reach = [&](NetId n) {
    if (mark[n] == kOutside) {
      mark[n] = kReached;
      reached.push_back(n);
    }
  };
  cone.alive = 0;
  for (std::size_t j = 0; j < batch.n; ++j) {
    if (flags[batch.idx[j]]) continue;
    ++cone.alive;
    reach(faults[batch.idx[j]].site.gate);
  }
  for (std::size_t i = 0; i < reached.size(); ++i) {
    const NetId g = reached[i];
    for (std::uint32_t e = t.fan_begin[g]; e < t.fan_begin[g + 1]; ++e) {
      reach(t.fan[e]);
    }
  }

  cone.gates.clear();
  cone.boundary.clear();
  cone.dffs.clear();
  for (NetId g : t.order) {
    if (mark[g] != kReached) continue;
    mark[g] = kSwept;
    cone.gates.push_back(g);
  }
  for (NetId g : cone.gates) {
    const netlist::GateKind kind = nl.gate(g).kind;
    if (kind == netlist::GateKind::kInput) cone.boundary.push_back(g);
    if (kind == netlist::GateKind::kDff) cone.dffs.push_back(g);
    for (std::uint32_t r = t.read_begin[g]; r < t.read_begin[g + 1]; ++r) {
      const NetId s = t.reads[r];
      if (mark[s] == kOutside) {
        mark[s] = kBoundary;
        cone.boundary.push_back(s);
      }
    }
  }
  std::sort(cone.boundary.begin(), cone.boundary.end());
  cone.observe.clear();
  for (NetId o : observe) {
    if (mark[o] == kSwept) cone.observe.push_back(o);
  }
  cone.frozen.clear();
  for (NetId q : t.dffs) {
    if (mark[q] != kSwept) cone.frozen.push_back(q);
  }
}

}  // namespace detail

CoverageResult simulate_serial(const Netlist& nl,
                               const std::vector<Fault>& faults,
                               const PatternSet& patterns,
                               const ObserveSet& observe, Engine engine,
                               unsigned lanes) {
  detail::require_combinational(nl, "simulate_serial");
  const EngineContext ctx(engine, nl, observe, /*compiled=*/nullptr,
                          /*reach=*/nullptr, lanes);
  const detail::Activation act = detail::activation_of(faults);
  std::optional<detail::GoodBaseline> baseline;
  if (act == detail::Activation::kTransition) {
    baseline = detail::make_good_baseline(nl, patterns, ctx.observe());
  }

  CoverageResult res;
  res.total = faults.size();
  res.detected_flags.assign(faults.size(), 0);
  std::uint8_t* flags = res.detected_flags.data();
  ctx.grade_with_evaluator([&](auto& ev) {
    if (baseline) {
      detail::grade_transition_serial(ev, faults, patterns, ctx.observe(),
                                      *baseline, ctx.reach(), flags);
      return;
    }
    detail::with_activation(act, [&](auto tag) {
      detail::grade_serial<decltype(tag)::value>(
          ev, faults, patterns, ctx.observe(), ctx.reach(), flags);
    });
  });
  res.recount();
  return res;
}

CoverageResult simulate_serial(const Netlist& nl,
                               const std::vector<Fault>& faults,
                               const SeqStimulus& stimulus,
                               const ObserveSet& observe) {
  const detail::Activation act = detail::activation_of(faults);
  if (act == detail::Activation::kTransition) {
    throw std::invalid_argument(
        "simulate_serial: transition faults are combinational-only "
        "(launch/capture pattern pairs); grade them against a PatternSet");
  }
  const ObserveSet resolved = detail::resolve_observe(nl, observe);
  CoverageResult res;
  res.total = faults.size();
  res.detected_flags.assign(faults.size(), 0);
  Evaluator ev(nl);
  detail::with_activation(act, [&](auto tag) {
    detail::grade_seq_serial<decltype(tag)::value>(
        ev, faults, stimulus, resolved, res.detected_flags.data());
  });
  res.recount();
  return res;
}

CoverageResult simulate_comb(const Netlist& nl,
                             const std::vector<Fault>& faults,
                             const PatternSet& patterns,
                             const ObserveSet& observe, Engine engine,
                             unsigned lanes) {
  detail::require_combinational(nl, "simulate_comb");
  SimOptions options;
  options.num_threads = 1;
  options.lane_parallel = false;
  options.engine = engine;
  options.lanes = lanes;
  return simulate_comb_parallel(nl, faults, patterns, observe, options);
}

CoverageResult simulate_seq(const Netlist& nl,
                            const std::vector<Fault>& faults,
                            const SeqStimulus& stimulus,
                            const ObserveSet& observe, Engine engine,
                            unsigned lanes) {
  SimOptions options;
  options.num_threads = 1;
  options.engine = engine;
  options.lanes = lanes;
  return simulate_seq_parallel(nl, faults, stimulus, observe, options);
}

void simulate_comb_into(const EngineContext& ctx,
                        const std::vector<Fault>& faults,
                        const PatternSet& patterns, std::uint8_t* flags) {
  detail::require_combinational(ctx.netlist(), "simulate_comb_into");
  if (detail::activation_of(faults) != detail::Activation::kAlways) {
    throw std::invalid_argument(
        "simulate_comb_into: stuck-at faults only (activation streams and "
        "launch/capture pairs restart with every batch)");
  }
  ctx.grade_with_evaluator([&](auto& ev) {
    detail::grade_blocks<detail::Activation::kAlways>(
        ev, faults, 0, faults.size(), patterns, ctx.observe(), ctx.reach(),
        flags);
  });
}

std::vector<std::vector<bool>> good_responses(const Netlist& nl,
                                              const PatternSet& patterns,
                                              const ObserveSet& observe_in) {
  detail::require_combinational(nl, "good_responses");
  const ObserveSet observe = detail::resolve_observe(nl, observe_in);

  std::vector<std::vector<bool>> out;
  out.reserve(patterns.size());
  Evaluator ev(nl);
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    detail::apply_block(ev, patterns, b);
    ev.eval();
    const std::size_t lanes =
        std::min<std::size_t>(64, patterns.size() - b * 64);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::vector<bool> row(observe.size());
      for (std::size_t o = 0; o < observe.size(); ++o) {
        row[o] = (ev.value(observe[o]) >> lane) & 1u;
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace sbst::fault

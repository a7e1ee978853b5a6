#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "common/serialize.hpp"
#include "conform/case.hpp"
#include "conform/runner.hpp"
#include "store/artifact_store.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sbst;
using core::CutId;
using fault::FaultModel;

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer),
      index_(tracer.add(std::move(name), tracer.now(), -1)) {
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end = tracer_.now();
  tracer_.open_.pop_back();
}

double Tracer::Scope::elapsed() const {
  return tracer_.now() - tracer_.spans_[static_cast<std::size_t>(index_)].start;
}

int Tracer::add(std::string name, double start, double end, int parent) {
  if (parent == -2) parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::self_time(std::size_t index) const {
  const Span& s = spans_[index];
  double covered = 0;
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<int>(index)) {
      covered += spans_[i].end - spans_[i].start;
    }
  }
  return (s.end - s.start) - covered;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"start\": %.6f, "
                  "\"end\": %.6f, \"parent\": %d}\n",
                  i, s.name.c_str(), s.start, s.end, s.parent);
    out << line;
  }
}

// ---------------------------------------------------------------------------
// the traced re-drive
// ---------------------------------------------------------------------------

namespace {

const char* cut_tag(CutId id) {
  switch (id) {
    case CutId::kMultiplier: return "mul";
    case CutId::kDivider: return "div";
    case CutId::kRegisterFile: return "rf";
    case CutId::kMemCtrl: return "mem";
    case CutId::kShifter: return "shifter";
    case CutId::kAlu: return "alu";
    case CutId::kControl: return "ctrl";
    case CutId::kForwarding: return "fwd";
    case CutId::kPipeline: return "pipe";
    case CutId::kBranchAdder: return "badd";
  }
  return "?";
}

const char* model_tag(FaultModel m) {
  switch (m) {
    case FaultModel::kStuckAt: return "sa";
    case FaultModel::kTransition: return "tr";
    case FaultModel::kTransientSEU: return "seu";
    case FaultModel::kIntermittent: return "int";
  }
  return "?";
}

constexpr std::array<FaultModel, 4> kModels = {
    FaultModel::kStuckAt, FaultModel::kTransition, FaultModel::kTransientSEU,
    FaultModel::kIntermittent};

/// Faults per (cut, model) in each traced campaign step.
constexpr std::size_t kTracedInjectSample = 8;

struct Stimulus {
  const fault::PatternSet* patterns = nullptr;
  const fault::SeqStimulus* seq = nullptr;
};

Stimulus stimulus_of(const core::TraceCollector& trace, CutId id) {
  switch (id) {
    case CutId::kAlu: return {&trace.alu_patterns(), nullptr};
    case CutId::kShifter: return {&trace.shifter_patterns(), nullptr};
    case CutId::kMultiplier: return {&trace.multiplier_patterns(), nullptr};
    case CutId::kControl: return {&trace.control_patterns(), nullptr};
    case CutId::kForwarding: return {&trace.forwarding_patterns(), nullptr};
    case CutId::kBranchAdder: return {&trace.branch_adder_patterns(), nullptr};
    case CutId::kDivider: return {nullptr, &trace.divider_stimulus()};
    case CutId::kRegisterFile: return {nullptr, &trace.regfile_stimulus()};
    case CutId::kMemCtrl: return {nullptr, &trace.memctrl_stimulus()};
    case CutId::kPipeline: return {nullptr, &trace.pipeline_stimulus()};
  }
  return {};
}

using Key = std::pair<CutId, FaultModel>;

/// Per-round samples of every per-layer metric.
using Samples = std::map<std::string, std::vector<double>>;

class TracedRun {
 public:
  TracedRun(const Config& cfg, Result& result)
      : cfg_(cfg), result_(result),
        table_(OutcomeTable::load(outcome_table_path(cfg))) {}

  /// Untraced evaluation under every fault model: the detected counts the
  /// traced gradings must reproduce.
  void reference() {
    Fixture f = build_fixture(cfg_);
    core::EvalOptions opts;
    opts.sim = cfg_.sim(cfg_.threads);
    opts.fault_models.assign(kModels.begin(), kModels.end());
    const core::ProgramEvaluation ev =
        core::evaluate_program(*f.session, *f.builder, f.program, opts);
    for (const core::CutCoverage& c : ev.cuts) {
      reference_[{c.id, c.model}] = c.coverage.detected;
    }
    if (cfg_.corrupt_expectation) ++reference_.begin()->second;
  }

  void round(std::size_t index);
  void serve_phase(double window);
  void finish();
  const Tracer& tracer() const { return tracer_; }

 private:
  void check_detected(const Key& key, std::size_t detected,
                      const char* where) {
    ++result_.attempted;
    const auto it = reference_.find(key);
    if (it == reference_.end() || it->second != detected) {
      ++result_.failed;
      result_.fail(std::string("traced ") + where + " " + cut_tag(key.first) +
                   "." + model_tag(key.second) + ": detected " +
                   std::to_string(detected) + ", untraced evaluation " +
                   (it == reference_.end() ? std::string("has no row")
                                           : std::to_string(it->second)));
    }
  }
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  const Config& cfg_;
  Result& result_;
  OutcomeTable table_;
  Tracer tracer_;
  std::map<Key, std::size_t> reference_;
  Samples samples_;
  double inject_instructions_ = 0;
  double inject_seconds_ = 0;
  std::map<std::string, std::pair<double, double>> inject_counts_;
  std::vector<std::size_t> round_roots_;
  std::size_t serve_begin_ = 0;
  ServeRun serve_;
};

void TracedRun::round(std::size_t index) {
  Tracer& tr = tracer_;
  round_roots_.push_back(tr.spans().size());
  Tracer::Scope root(tr, "round");

  // ---- setup: model, program, session + pool, decode ----------------------
  Fixture f;
  {
    Tracer::Scope s(tr, "setup");
    {
      Tracer::Scope m(tr, "core.model");
      f.model = std::make_unique<core::ProcessorModel>();
    }
    {
      Tracer::Scope p(tr, "core.program");
      f.builder = std::make_unique<core::TestProgramBuilder>();
      f.builder->add_default_routines(*f.model);
      f.program = f.builder->build();
    }
    {
      Tracer::Scope p(tr, "core.session");
      f.session = std::make_unique<core::GradingSession>(
          *f.model, cfg_.session());
    }
    Tracer::Scope d(tr, "isa.decode");
    f.session->decoded(f.program.image);
  }
  core::GradingSession& session = *f.session;
  const core::ProcessorModel& model = *f.model;
  const core::TestProgram& program = f.program;
  const fault::SimOptions sim = cfg_.sim(cfg_.threads);
  const core::ObserveMode mode = core::ObserveMode::kArchitectural;

  // ---- evaluate, stuck-at: the steps evaluate_program composes ------------
  core::TraceCollector trace(model);
  std::map<CutId, const netlist::CompiledNetlist*> compiled;
  std::map<CutId, const std::uint8_t*> reach;
  std::map<CutId, const fault::ObserveSet*> observe;
  std::map<CutId, double> sa_grade;
  double evaluate_wall = 0;
  {
    Tracer::Scope ev(tr, "evaluate");
    {
      Tracer::Scope s(tr, "sim.trace");
      for (std::size_t i = 0; i < program.routines.size(); ++i) {
        if (program.routines[i].target == CutId::kRegisterFile) {
          trace.restrict_regfile(program.sections[i].begin_addr,
                                 program.sections[i].end_addr);
        }
      }
      sim::Cpu cpu;
      cpu.reset();
      cpu.load(program.image, session.decoded(program.image));
      sim::TraceSink<core::TraceCollector> sink{&trace};
      const sim::ExecStats stats = cpu.run_sink(program.entry, sink, 1u << 22);
      if (!stats.halted) result_.fail("traced run: program did not halt");
      for (unsigned slot = 0; slot < core::kSignatureSlots; ++slot) {
        cpu.read_word(program.signature_address(slot));
      }
      sample("sim.trace.instructions", static_cast<double>(stats.instructions));
    }
    double gates = 0;
    for (const core::ComponentInfo& info : model.components()) {
      {
        Tracer::Scope c(tr, "netlist.compile");
        reach[info.id] = session.cone(info.id, mode).data();
        compiled[info.id] =
            &session.compiled(info.id, netlist::CompileOptions::all());
        observe[info.id] = &session.observe(info.id, mode);
      }
      gates += static_cast<double>(compiled[info.id]->live_gates());
      Tracer::Scope c(tr, "fault.collapse");
      session.universe(info.id, FaultModel::kStuckAt);
    }
    sample("netlist.gates_after_opt", gates);
    for (const core::ComponentInfo& info : model.components()) {
      const Key key{info.id, FaultModel::kStuckAt};
      fault::SimOptions opts = sim;
      opts.pool = &session.pool();
      opts.compiled = compiled[info.id];
      opts.reach = reach[info.id];
      const std::vector<fault::Fault>& faults =
          session.universe(info.id, FaultModel::kStuckAt).collapsed();
      const Stimulus stim = stimulus_of(trace, info.id);
      Tracer::Scope g(tr, std::string("fault.grade.") + cut_tag(info.id) +
                              ".sa");
      const fault::CoverageResult cov =
          stim.patterns
              ? fault::simulate_comb_parallel(info.netlist, faults,
                                              *stim.patterns,
                                              *observe[info.id], opts)
              : fault::simulate_seq_parallel(info.netlist, faults, *stim.seq,
                                             *observe[info.id], opts);
      sa_grade[info.id] = g.elapsed();
      check_detected(key, cov.detected, "grade");
    }
    {
      Tracer::Scope s(tr, "core.standalone");
      std::vector<core::TestProgram> standalones;
      standalones.reserve(program.routines.size());
      fault::GradingPlan runs;
      for (const core::Routine& r : program.routines) {
        standalones.push_back(f.builder->build_standalone(r));
        const core::TestProgram& solo = standalones.back();
        runs.add_task([&solo, decoded = session.decoded(solo.image)] {
          sim::Cpu cpu;
          cpu.reset();
          cpu.load(solo.image, decoded);
          cpu.run(solo.entry, 1u << 22);
        });
      }
      runs.run(session.pool());
    }
    evaluate_wall = ev.elapsed();
  }

  // ---- the untraced twin, for the tracing overhead ------------------------
  {
    Tracer::Scope u(tr, "untraced.evaluate");
    core::GradingSession fresh(model, cfg_.session());
    core::EvalOptions opts;
    opts.sim = sim;
    core::evaluate_program(fresh, *f.builder, program, opts);
    sample("trace.overhead_pct",
           100.0 * (evaluate_wall - u.elapsed()) / u.elapsed());
  }

  // ---- one flattened plan over every CUT (evaluate_program's schedule) ----
  {
    std::vector<std::unique_ptr<fault::EngineContext>> ctxs;
    std::vector<fault::CoverageResult> covs(model.components().size());
    fault::GradingPlan plan;
    std::size_t k = 0;
    for (const core::ComponentInfo& info : model.components()) {
      ctxs.push_back(std::make_unique<fault::EngineContext>(
          sim.engine, info.netlist, *observe[info.id], compiled[info.id],
          reach[info.id], sim.lanes, sim.netlist_opt));
      const std::vector<fault::Fault>& faults =
          session.universe(info.id, FaultModel::kStuckAt).collapsed();
      const Stimulus stim = stimulus_of(trace, info.id);
      if (stim.patterns) {
        plan.add_comb(*ctxs.back(), faults, *stim.patterns, sim.lane_parallel,
                      covs[k++]);
      } else {
        plan.add_seq(*ctxs.back(), faults, *stim.seq, covs[k++]);
      }
    }
    Tracer::Scope p(tr, "fault.grade.plan");
    plan.run(session.pool());
    const double plan_wall = p.elapsed();
    double slowest = 0;
    for (const auto& [id, wall] : sa_grade) slowest = std::max(slowest, wall);
    sample("fault.grade.straggler_share", slowest / plan_wall);
    k = 0;
    for (const core::ComponentInfo& info : model.components()) {
      covs[k].recount();
      check_detected({info.id, FaultModel::kStuckAt}, covs[k++].detected,
                     "plan");
    }
  }

  // ---- the other fault models, one grading per (cut, model) ---------------
  {
    Tracer::Scope m(tr, "grade.models");
    for (const FaultModel fm : kModels) {
      if (fm == FaultModel::kStuckAt) continue;
      for (const core::ComponentInfo& info : model.components()) {
        const Stimulus stim = stimulus_of(trace, info.id);
        if (fm == FaultModel::kTransition && !stim.patterns) continue;
        const fault::FaultUniverse* universe = nullptr;
        {
          Tracer::Scope c(tr, "fault.collapse");
          universe = &session.universe(info.id, fm);
        }
        fault::SimOptions opts = sim;
        opts.pool = &session.pool();
        opts.compiled = compiled[info.id];
        opts.reach = reach[info.id];
        Tracer::Scope g(tr, std::string("fault.grade.") + cut_tag(info.id) +
                                "." + model_tag(fm));
        const fault::CoverageResult cov =
            stim.patterns
                ? fault::simulate_comb_parallel(info.netlist,
                                                universe->collapsed(),
                                                *stim.patterns,
                                                *observe[info.id], opts)
                : fault::simulate_seq_parallel(info.netlist,
                                               universe->collapsed(),
                                               *stim.seq, *observe[info.id],
                                               opts);
        check_detected({info.id, fm}, cov.detected, "grade");
      }
    }
  }

  // ---- campaign: good run, then one campaign per (cut, model) -------------
  {
    Tracer::Scope c(tr, "campaign");
    {
      Tracer::Scope g(tr, "core.goodrun");
      session.good_run(program);
    }
    for (std::size_t t = 0; t < kInjectTargets.size(); ++t) {
      const InjectTarget& target = kInjectTargets[t];
      const std::string name = std::string("core.inject.") + target.cut_name +
                               "." + target.model_tag;
      session.universe(target.cut, target.model);
      const std::vector<std::size_t> sample_idx =
          campaign_sample(cfg_, table_, 1000 + index, t, kTracedInjectSample);
      Tracer::Scope s(tr, name);
      const std::vector<core::InjectionOutcome> outs =
          run_checked_campaign(f, table_, t, sample_idx, result_);
      const double wall = s.elapsed();
      double instr = 0, hangs = 0;
      for (const core::InjectionOutcome& o : outs) {
        instr += static_cast<double>(o.faulty_stats.instructions);
        if (o.outcome == core::RunOutcome::kDetectedHang) ++hangs;
      }
      inject_instructions_ += instr;
      inject_seconds_ += wall;
      auto& [sum_instr, sum_hangs] = inject_counts_[name];
      sum_instr += instr;
      sum_hangs += hangs;
    }
  }

  // ---- store: cold write, warm read of every CUT's artifacts --------------
  {
    std::vector<std::pair<store::ArtifactKey, std::vector<std::uint8_t>>>
        images;
    for (const core::ComponentInfo& info : model.components()) {
      common::ByteWriter wu, wc;
      session.universe(info.id, FaultModel::kStuckAt).serialize(wu);
      compiled[info.id]->serialize(wc);
      store::ArtifactKey key;
      key.cut = static_cast<std::uint32_t>(info.id);
      key.kind = "universe";
      images.push_back({key, wu.take()});
      key.kind = "compiled";
      images.push_back({key, wc.take()});
    }
    const std::string dir =
        cfg_.scratch + "/store-" + std::to_string(index);
    store::ArtifactStore st(dir);
    Tracer::Scope s(tr, "store");
    {
      Tracer::Scope w(tr, "store.write");
      for (const auto& [key, bytes] : images) st.save(key, bytes);
    }
    Tracer::Scope r(tr, "store.read");
    for (const auto& [key, bytes] : images) {
      ++result_.attempted;
      const auto loaded = st.load(key);
      if (!loaded || *loaded != bytes) {
        ++result_.failed;
        result_.fail("store: read back differs for " + key.kind);
      }
    }
  }

  // ---- conform: corpus replay through the three executors -----------------
  {
    Tracer::Scope c(tr, "conform.replay");
    const conform::Corpus corpus =
        conform::load_corpus(cfg_.root + "/tests/corpus/v1");
    const conform::ConformReport report =
        conform::ConformRunner(&session).run(corpus);
    ++result_.attempted;
    if (!report.ok()) {
      ++result_.failed;
      result_.fail("conform replay reported differential failures");
    }
  }
}

void TracedRun::serve_phase(double window) {
  const core::ProcessorModel model;
  Tracer::Scope s(tracer_, "serve");
  serve_begin_ = tracer_.spans().size() - 1;
  serve_ = run_serve_load(cfg_, model, window, result_);
  // Requests ran on the daemon's threads; their spans are recorded after
  // the fact: due -> terminator, with the daemon's exec wall as the child.
  const double warm = tracer_.at(serve_.warmup_origin);
  tracer_.add("serve.warmup", warm, warm + serve_.warmup_s);
  const double origin = tracer_.at(serve_.origin);
  for (const ServeRun::Req& r : serve_.measured) {
    if (r.done < 0) continue;
    const int req =
        tracer_.add("serve.request", origin + r.due, origin + r.done);
    if (r.exec >= 0) {
      tracer_.add(std::string("serve.exec.") + req_kind_name(r.kind),
                  origin + r.done - r.exec, origin + r.done, req);
    }
  }
}

void TracedRun::finish() {
  Metrics& m = result_.metrics;
  const std::vector<Tracer::Span>& spans = tracer_.spans();
  // Self time per span name, summed within each round.
  for (std::size_t r = 0; r < round_roots_.size(); ++r) {
    const std::size_t end =
        r + 1 < round_roots_.size() ? round_roots_[r + 1] : serve_begin_;
    std::map<std::string, double> self;
    for (std::size_t i = round_roots_[r]; i < end; ++i) {
      self[spans[i].name] += tracer_.self_time(i);
      if (spans[i].name == "evaluate" || spans[i].name == "campaign") {
        const double wall = spans[i].end - spans[i].start;
        sample("trace." + spans[i].name + ".accounted_share",
               1.0 - tracer_.self_time(i) / wall);
      }
    }
    for (const auto& [name, secs] : self) sample(name + "_s", secs);
  }
  const double rounds = static_cast<double>(round_roots_.size());
  for (const auto& [name, sums] : inject_counts_) {
    const double n = rounds * static_cast<double>(kTracedInjectSample);
    sample(name + ".instr_per_fault", sums.first / n);
    sample(name + ".hang_share", sums.second / n);
  }
  sample("sim.inject.minstr_per_s",
         inject_instructions_ / inject_seconds_ / 1e6);
  sample("trace.rounds", rounds);

  // serve: per-verb exec walls, queue waits, refusals, generator lateness.
  std::map<std::string, std::vector<double>> exec;
  std::vector<double> wait, latency, late;
  double shed = 0, timeout = 0, failed = 0;
  for (const ServeRun::Req& r : serve_.measured) {
    latency.push_back(r.done < 0 ? 1e9 : r.done - r.due);
    late.push_back(r.sent - r.due);
    if (r.exec >= 0) {
      exec[req_kind_name(r.kind)].push_back(r.exec);
      wait.push_back(r.done - r.due - r.exec);
    } else if (r.kind == ReqKind::kPing && r.ok) {
      // ping is answered at admission; it has no exec line of its own.
      exec["ping"].push_back(0.0);
    }
    shed += r.shed;
    timeout += r.timeout;
    failed += !(r.ok && r.body_ok);
  }
  for (const char* verb : {"evaluate", "campaign", "conform", "stats", "ping"}) {
    sample(std::string("serve.exec.") + verb + "_s", median(exec[verb]));
  }
  sample("serve.wait_p50_s", percentile(wait, 0.5));
  sample("serve.wait_p90_s", percentile(wait, 0.9));
  sample("serve.p50_s", percentile(latency, 0.5));
  sample("serve.p90_s", percentile(latency, 0.9));
  sample("serve.requests", static_cast<double>(serve_.measured.size()));
  sample("serve.shed", shed);
  sample("serve.timeout", timeout);
  sample("serve.fail_pct",
         100.0 * failed /
             static_cast<double>(std::max<std::size_t>(1, serve_.measured.size())));
  sample("serve.journal.bytes", static_cast<double>(serve_.journal_bytes));
  sample("loadgen.late_p90_s", percentile(late, 0.9));

  for (const PerLayer& p : per_layer_metrics()) {
    const auto it = samples_.find(p.name);
    if (it == samples_.end()) {
      result_.fail("traced run produced no " + p.name);
      m.set(p.name, 0, p.unit);
    } else {
      m.set(p.name, median(it->second), p.unit);
    }
  }
}

}  // namespace

std::vector<PerLayer> per_layer_metrics() {
  const std::string lower = "lower", higher = "higher";
  std::vector<PerLayer> v = {
      {"core.model_s", "s", lower, "setup_s"},
      {"core.program_s", "s", lower, "setup_s"},
      {"core.session_s", "s", lower, "setup_s"},
      {"isa.decode_s", "s", lower, "setup_s"},
      {"sim.trace_s", "s", lower, "first_op_s on evaluate"},
      {"sim.trace.instructions", "count", lower, "first_op_s on evaluate"},
      {"fault.collapse_s", "s", lower, "first_op_s on evaluate"},
      {"netlist.compile_s", "s", lower, "first_op_s on evaluate"},
      {"netlist.gates_after_opt", "count", lower, "first_op_s on evaluate"},
      {"store.write_s", "s", lower, "setup_s (cold store)"},
      {"store.read_s", "s", lower, "setup_s (warm store)"},
  };
  const std::array<CutId, 10> cuts = {
      CutId::kMultiplier, CutId::kDivider,   CutId::kRegisterFile,
      CutId::kMemCtrl,    CutId::kShifter,   CutId::kAlu,
      CutId::kControl,    CutId::kForwarding, CutId::kBranchAdder,
      CutId::kPipeline};
  for (const FaultModel fm : kModels) {
    for (const CutId cut : cuts) {
      const bool comb = cut != CutId::kDivider && cut != CutId::kRegisterFile &&
                        cut != CutId::kMemCtrl && cut != CutId::kPipeline;
      if (fm == FaultModel::kTransition && !comb) continue;
      const char* moves = fm == FaultModel::kStuckAt
                              ? "op_p50_s on evaluate"
                              : fm == FaultModel::kTransientSEU
                                    ? "serve.p90_s (serve evaluate requests)"
                                    : "none (graded in the traced run only)";
      v.push_back({std::string("fault.grade.") + cut_tag(cut) + "." +
                       model_tag(fm) + "_s",
                   "s", lower, moves});
    }
  }
  const std::vector<PerLayer> rest = {
      {"fault.grade.plan_s", "s", lower, "op_p50_s on evaluate"},
      {"fault.grade.straggler_share", "ratio", lower, "op_p50_s on evaluate"},
      {"core.standalone_s", "s", lower, "op_p50_s on evaluate"},
      {"core.goodrun_s", "s", lower, "rate_per_s on campaign"},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  for (const InjectTarget& t : kInjectTargets) {
    const std::string base =
        std::string("core.inject.") + t.cut_name + "." + t.model_tag;
    const std::string moves = "rate_per_s on campaign; serve.p50_s";
    v.push_back({base + "_s", "s", lower, moves});
    v.push_back({base + ".instr_per_fault", "count", lower, moves});
    v.push_back({base + ".hang_share", "ratio", lower, moves});
  }
  const std::vector<PerLayer> tail = {
      {"sim.inject.minstr_per_s", "Minstr/s", higher, "rate_per_s on campaign"},
      {"conform.replay_s", "s", lower, "serve.p50_s"},
      {"serve.exec.evaluate_s", "s", lower, "serve.p50_s"},
      {"serve.exec.campaign_s", "s", lower, "serve.p50_s"},
      {"serve.exec.conform_s", "s", lower, "serve.p50_s"},
      {"serve.exec.stats_s", "s", lower, "serve.p50_s"},
      {"serve.exec.ping_s", "s", lower, "serve.p50_s"},
      {"serve.wait_p50_s", "s", lower, "serve.p50_s"},
      {"serve.wait_p90_s", "s", lower, "serve.p90_s"},
      {"serve.p50_s", "s", lower, "serve request latency, due to answer"},
      {"serve.p90_s", "s", lower, "serve request latency, due to answer"},
      {"serve.requests", "count", higher, "sample count of serve.p50_s/p90_s"},
      {"serve.shed", "count", lower, "serve.fail_pct"},
      {"serve.timeout", "count", lower, "serve.fail_pct"},
      {"serve.fail_pct", "%", lower, "serve requests answered err / sent"},
      {"serve.journal.bytes", "bytes", lower, "serve.p50_s"},
      {"loadgen.late_p90_s", "s", lower, "health check, not a target"},
      {"trace.overhead_pct", "%", lower, "health check, not a target"},
      {"trace.evaluate.accounted_share", "ratio", higher,
       "health check, not a target"},
      {"trace.campaign.accounted_share", "ratio", higher,
       "health check, not a target"},
      {"trace.rounds", "count", higher, "sample count of the round medians"},
  };
  v.insert(v.end(), tail.begin(), tail.end());
  return v;
}

Result run_traced(const Config& cfg) {
  Result result;
  TracedRun run(cfg, result);
  run.reference();
  // Re-drive rounds for half the run time, then serve an open loop for the
  // whole run time.
  const auto start = Clock::now();
  std::size_t rounds = 0;
  while (rounds < 1 || seconds_since(start) < cfg.seconds / 2) {
    run.round(rounds++);
  }
  run.serve_phase(cfg.seconds);
  run.finish();
  const std::string path = cfg.root + "/.bench_build/trace-" + cfg.workload +
                           "-seed" + std::to_string(cfg.seed) + ".jsonl";
  run.tracer().write(path);
  std::fprintf(stderr, "# trace: %zu spans written to %s\n",
               run.tracer().spans().size(), path.c_str());
  return result;
}

}  // namespace perfbench

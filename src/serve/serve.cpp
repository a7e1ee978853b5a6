#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/hash.hpp"
#include "common/tablefmt.hpp"
#include "conform/runner.hpp"

namespace sbst::serve {

using namespace sbst::core;

namespace {

struct CutName {
  const char* name;
  CutId id;
};
constexpr CutName kCuts[] = {
    {"mul", CutId::kMultiplier}, {"div", CutId::kDivider},
    {"rf", CutId::kRegisterFile}, {"mem", CutId::kMemCtrl},
    {"shifter", CutId::kShifter}, {"alu", CutId::kAlu},
    {"ctrl", CutId::kControl},
};

// --cpu-stats: the paper's §2 CPU-time equation, term by term. Goes to
// stderr so the determinism-checked stdout stays untouched.
void print_cpu_stats(const sim::ExecStats& s, std::FILE* err) {
  const double imiss =
      s.icache_accesses == 0
          ? 0.0
          : 100.0 * static_cast<double>(s.icache_misses) /
                static_cast<double>(s.icache_accesses);
  const double dmiss =
      s.dcache_accesses == 0
          ? 0.0
          : 100.0 * static_cast<double>(s.dcache_misses) /
                static_cast<double>(s.dcache_accesses);
  std::fprintf(err, "# cpu-stats: instructions %llu\n",
               static_cast<unsigned long long>(s.instructions));
  std::fprintf(err,
               "# cpu-stats: cpu cycles %llu + pipeline stalls %llu + "
               "memory stalls %llu = %llu total\n",
               static_cast<unsigned long long>(s.cpu_cycles),
               static_cast<unsigned long long>(s.pipeline_stall_cycles),
               static_cast<unsigned long long>(s.memory_stall_cycles),
               static_cast<unsigned long long>(s.total_cycles()));
  std::fprintf(err,
               "# cpu-stats: loads %llu stores %llu (data refs %llu)\n",
               static_cast<unsigned long long>(s.loads),
               static_cast<unsigned long long>(s.stores),
               static_cast<unsigned long long>(s.data_references()));
  std::fprintf(err,
               "# cpu-stats: icache %llu/%llu misses (%.2f%%), dcache "
               "%llu/%llu misses (%.2f%%)\n",
               static_cast<unsigned long long>(s.icache_misses),
               static_cast<unsigned long long>(s.icache_accesses), imiss,
               static_cast<unsigned long long>(s.dcache_misses),
               static_cast<unsigned long long>(s.dcache_accesses), dmiss);
  std::fprintf(err,
               "# cpu-stats: analytic total (5%% miss, 20-cycle penalty) "
               "%llu cycles\n",
               static_cast<unsigned long long>(
                   s.analytic_total_cycles(0.05, 20)));
  std::fprintf(err, "# cpu-stats: %.1f us at 57 MHz\n",
               1e6 * s.seconds(57e6));
}

// Reads one \n-terminated (or EOF-terminated) line, bounded at
// kMaxRequestLine bytes. An over-long line is consumed to its newline (so
// the loop stays in sync with the stream) and reported as kTooLong instead
// of growing an unbounded std::string.
enum class ReadStatus { kEof, kLine, kTooLong };

ReadStatus read_request_line(std::FILE* in, std::string& line) {
  line.clear();
  bool over = false;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') return over ? ReadStatus::kTooLong : ReadStatus::kLine;
    if (c == '\r') continue;
    if (line.size() >= kMaxRequestLine) {
      over = true;
      continue;  // keep consuming to the newline, discard the excess
    }
    line.push_back(static_cast<char>(c));
  }
  if (over) return ReadStatus::kTooLong;
  return line.empty() ? ReadStatus::kEof : ReadStatus::kLine;
}

// The effective model list: an empty selection means the stuck-at default.
std::vector<fault::FaultModel> resolve_models(
    const std::vector<fault::FaultModel>& models) {
  if (models.empty()) return {fault::FaultModel::kStuckAt};
  return models;
}

// True when the selection is exactly the legacy single-model default; only
// then do the renderers keep the historical (golden-diffed) table shape.
bool default_models(const std::vector<fault::FaultModel>& models) {
  return models.size() == 1 && models[0] == fault::FaultModel::kStuckAt;
}

// Selected fault models, resolved. Stderr only, like the engine config: the
// golden-diffed stdout must not change with the default selection.
void print_fault_model_config(const std::vector<fault::FaultModel>& models,
                              std::FILE* err) {
  std::string joined;
  for (const fault::FaultModel m : models) {
    if (!joined.empty()) joined += ",";
    joined += fault::fault_model_name(m);
  }
  std::fprintf(err, "# config: fault models %s\n", joined.c_str());
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string cur;
  for (const char ch : line) {
    if (ch == ' ' || ch == '\t') {
      if (!cur.empty()) tokens.push_back(std::move(cur)), cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));
  return tokens;
}

}  // namespace

bool parse_cut_name(const std::string& name, CutId& out) {
  for (const CutName& c : kCuts) {
    if (name == c.name) {
      out = c.id;
      return true;
    }
  }
  return false;
}

bool parse_fault_model_list(const std::string& spec,
                            std::vector<fault::FaultModel>& out) {
  std::vector<fault::FaultModel> models;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    fault::FaultModel m;
    if (end == begin || !fault::parse_fault_model(
                            spec.substr(begin, end - begin), m)) {
      return false;
    }
    if (std::find(models.begin(), models.end(), m) == models.end()) {
      models.push_back(m);
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (models.empty()) return false;
  out = std::move(models);
  return true;
}

bool injectable_cut(CutId id) {
  return id == CutId::kAlu || id == CutId::kShifter ||
         id == CutId::kMultiplier;
}

// Selected engine / lane / optimization configuration, resolved to what the
// gradings will actually run. Stderr only: stdout is golden-diffed across
// widths and engines.
void print_engine_config(const fault::SimOptions& sim, std::FILE* err) {
  const unsigned lanes = fault::resolve_lanes(sim.lanes, sim.engine);
  const bool opt = sim.engine != fault::Engine::kReference &&
                   fault::resolve_compile_options(sim.netlist_opt).any();
  // Lanes carry faults only in the sequential kernel; the combinational
  // one packs patterns into them.
  std::fprintf(err,
               "# config: engine %s, lanes %u (sequential CUTs %u fault "
               "lanes/pass, combinational CUTs %u patterns/eval), "
               "netlist-opt %s\n",
               fault::engine_name(sim.engine), lanes, 64 * lanes - 1,
               64 * lanes, opt ? "on" : "off");
}

void print_store_summary(const core::GradingSession& session,
                         const store::ArtifactStore* store, std::FILE* err) {
  if (!store) return;
  const SessionStats s = session.stats();
  std::fprintf(err,
               "# store: loads %zu hits %zu misses %zu invalid %zu "
               "writes %zu (dir %s)\n",
               s.store_loads, s.store_hits, s.store_misses, s.store_invalid,
               s.store_writes, store->dir().c_str());
}

int render_evaluate(GradingSession& session, const fault::SimOptions& sim,
                    bool cpu_stats, std::FILE* out, std::FILE* err,
                    const std::vector<fault::FaultModel>& fault_models) {
  const std::vector<fault::FaultModel> models = resolve_models(fault_models);
  print_engine_config(sim, err);
  print_fault_model_config(models, err);
  const std::shared_ptr<const DefaultProgram> program =
      session.default_program();
  EvalOptions options;
  options.sim = sim;
  options.fault_models = models;
  const ProgramEvaluation ev = evaluate_program(session, program->builder,
                                                program->program, options);
  if (default_models(models)) {
    // The legacy single-model table, byte-identical to the golden output.
    Table t({"Component", "FC (%)", "Miss. FC (%)"});
    for (const CutCoverage& c : ev.cuts) {
      t.add_row({session.model().component(c.id).name,
                 Table::num(c.coverage.percent(), 1),
                 Table::num(ev.missing_fc(c.id), 2)});
    }
    std::fputs(t.str().c_str(), out);
  } else {
    // One row per graded (component, model) pair. Miss. FC is each row's
    // undetected share of the combined fault population, so the column
    // still sums to 100 - overall FC.
    std::size_t population = 0;
    for (const CutCoverage& c : ev.cuts) population += c.coverage.total;
    Table t({"Component", "Model", "FC (%)", "Miss. FC (%)"});
    for (const CutCoverage& c : ev.cuts) {
      const double miss =
          population == 0
              ? 0.0
              : 100.0 *
                    static_cast<double>(c.coverage.total -
                                        c.coverage.detected) /
                    static_cast<double>(population);
      t.add_row({session.model().component(c.id).name,
                 fault::fault_model_name(c.model),
                 Table::num(c.coverage.percent(), 1), Table::num(miss, 2)});
    }
    std::fputs(t.str().c_str(), out);
  }
  std::fprintf(out,
               "overall FC %.2f%%; %llu cycles, %llu stalls, %llu data refs\n",
               ev.overall_fc(),
               static_cast<unsigned long long>(ev.total.cpu_cycles),
               static_cast<unsigned long long>(ev.total.pipeline_stall_cycles),
               static_cast<unsigned long long>(ev.total.data_references()));
  // Stage timings go to stderr: stdout must stay byte-identical for every
  // thread count / engine / cache / store setting (the CI determinism check
  // diffs it), while wall-clock never is.
  std::fprintf(err,
               "# stages (s): trace %.3f collapse %.3f compile %.3f "
               "grade %.3f standalone %.3f\n",
               ev.stages.trace, ev.stages.collapse, ev.stages.compile,
               ev.stages.grade, ev.stages.standalone);
  if (cpu_stats) print_cpu_stats(ev.total, err);
  return 0;
}

// Guarded injection campaign over the injectable CUTs: every fault gets a
// classified RunOutcome; the table splits detections into signature vs
// symptom. Stdout is deterministic for any thread count / cache setting
// (the CI smoke diffs it); wall-clock goes to stderr.
int render_campaign(GradingSession& session, const fault::SimOptions& sim,
                    std::size_t max_faults, const std::vector<CutId>& cuts,
                    std::FILE* out, std::FILE* err,
                    const std::vector<fault::FaultModel>& fault_models,
                    const RequestBudget* budget) {
  const std::vector<fault::FaultModel> models = resolve_models(fault_models);
  print_engine_config(sim, err);
  print_fault_model_config(models, err);
  const bool legacy = default_models(models);
  const ProcessorModel& model = session.model();
  const std::shared_ptr<const DefaultProgram> program =
      session.default_program();
  const auto t0 = std::chrono::steady_clock::now();
  OutcomeHistogram total;
  std::vector<std::string> header = {"Component", "Faults", "Sig", "Hang",
                                     "Trap", "Wild", "Ok", "Infra",
                                     "Det (%)"};
  if (!legacy) header.insert(header.begin() + 1, "Model");
  Table t(header);
  for (const CutId cut : cuts) {
    for (const fault::FaultModel fm : models) {
      // Cooperative deadline: a runaway campaign aborts between per-CUT
      // gradings (each already bounded by the per-run watchdog), so a
      // request can never wedge the daemon for more than one grading past
      // its budget. The caller discards the partial table.
      if (budget && budget->expired()) return kTimeoutStatus;
      std::vector<fault::Fault> faults = session.universe(cut, fm).collapsed();
      if (max_faults != 0 && faults.size() > max_faults) {
        faults.resize(max_faults);
      }
      const OutcomeHistogram h = histogram_of(
          run_injection_campaign(session, program->program, cut, faults, {}));
      for (std::size_t k = 0; k < kRunOutcomeCount; ++k) {
        total.counts[k] += h.counts[k];
      }
      const double det =
          h.total() == 0 ? 0.0
                         : 100.0 * static_cast<double>(h.detected()) /
                               static_cast<double>(h.total());
      std::vector<std::string> row = {
          model.component(cut).name,
          Table::num(static_cast<std::uint64_t>(h.total())),
          Table::num(static_cast<std::uint64_t>(h.detected_by_signature())),
          Table::num(static_cast<std::uint64_t>(
              h.count(RunOutcome::kDetectedHang))),
          Table::num(static_cast<std::uint64_t>(
              h.count(RunOutcome::kDetectedTrap))),
          Table::num(static_cast<std::uint64_t>(
              h.count(RunOutcome::kDetectedWildStore))),
          Table::num(static_cast<std::uint64_t>(
              h.count(RunOutcome::kOkMatch))),
          Table::num(static_cast<std::uint64_t>(
              h.count(RunOutcome::kInfraError))),
          Table::num(det, 1)};
      if (!legacy) row.insert(row.begin() + 1, fault::fault_model_name(fm));
      t.add_row(row);
    }
  }
  if (budget && budget->expired()) return kTimeoutStatus;
  std::fputs(t.str().c_str(), out);
  std::fprintf(
      out,
      "campaign: %zu faults, detected %zu (signature %zu, symptom %zu), "
      "infra errors %zu\n",
      total.total(), total.detected(), total.detected_by_signature(),
      total.detected_by_symptom(), total.count(RunOutcome::kInfraError));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::fprintf(err, "# campaign: budget factor %.1f, %.3f s wall, %zu faults\n",
               session.options().budget_factor, wall, total.total());
  return 0;
}

// `conform run`: three-executor differential replay. Stdout (per-class
// table, failure details, summary) is deterministic for any thread count /
// cache setting — the CI golden diff depends on it. Timings go to stderr.
int render_conform_run(GradingSession& session, const char* dir,
                       std::FILE* out, std::FILE* err) {
  const auto t0 = std::chrono::steady_clock::now();
  const conform::Corpus corpus = conform::load_corpus(dir);
  const auto t1 = std::chrono::steady_clock::now();
  const conform::ConformRunner runner(&session);
  const conform::ConformReport report = runner.run(corpus);
  const auto t2 = std::chrono::steady_clock::now();
  Table t({"Class", "Cases", "Pass", "Fail"});
  for (const conform::ClassTally& tally : report.by_class) {
    t.add_row({tally.cls,
               Table::num(static_cast<std::uint64_t>(tally.cases)),
               Table::num(static_cast<std::uint64_t>(tally.pass)),
               Table::num(static_cast<std::uint64_t>(tally.fail))});
  }
  std::fputs(t.str().c_str(), out);
  for (const conform::CaseFailure& f : report.failures) {
    std::fprintf(out, "FAIL %s [%s]: %s\n", f.name.c_str(),
                 conform::executor_name(f.exec), f.detail.c_str());
  }
  std::fprintf(out,
               "conform: %zu cases, passed %zu, failed %zu "
               "(%s, seed %llu, content hash %016llx)\n",
               report.cases, report.passed, report.failed,
               corpus.version.c_str(),
               static_cast<unsigned long long>(corpus.seed),
               static_cast<unsigned long long>(
                   conform::corpus_content_hash(corpus)));
  std::fprintf(err, "# conform: load %.3f s, replay %.3f s, %zu cases\n",
               std::chrono::duration<double>(t1 - t0).count(),
               std::chrono::duration<double>(t2 - t1).count(), report.cases);
  return report.ok() ? 0 : 1;
}

void render_stats(const GradingSession& session,
                  const store::ArtifactStore* store, std::FILE* out,
                  const Journal* journal) {
  const SessionStats s = session.stats();
  std::fprintf(out,
               "session: universe %zu/%zu compile %zu/%zu observe %zu/%zu "
               "cone %zu/%zu decode %zu/%zu goodrun %zu/%zu patterns %zu/%zu "
               "(builds/hits)\n",
               s.universe_builds, s.universe_hits, s.compile_builds,
               s.compile_hits, s.observe_builds, s.observe_hits,
               s.cone_builds, s.cone_hits, s.decode_builds, s.decode_hits,
               s.goodrun_builds, s.goodrun_hits, s.patterns_builds,
               s.patterns_hits);
  if (store) {
    std::fprintf(out,
                 "store: loads %zu hits %zu misses %zu invalid %zu "
                 "writes %zu\n",
                 s.store_loads, s.store_hits, s.store_misses,
                 s.store_invalid, s.store_writes);
  } else {
    std::fputs("store: none\n", out);
  }
  if (journal) {
    const JournalStats j = journal->stats();
    std::fprintf(out,
                 "journal: begins %llu seals %llu append-failures %llu "
                 "replayed %llu verified %llu mismatches %llu corrupt %llu\n",
                 static_cast<unsigned long long>(j.begins),
                 static_cast<unsigned long long>(j.seals),
                 static_cast<unsigned long long>(j.append_failures),
                 static_cast<unsigned long long>(j.replayed),
                 static_cast<unsigned long long>(j.verified),
                 static_cast<unsigned long long>(j.verify_mismatches),
                 static_cast<unsigned long long>(j.corrupt_skipped));
  }
}

namespace {

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

enum class Verb { kPing, kStats, kEvaluate, kCampaign, kConform, kQuit,
                  kInvalid };

// Work verbs execute on the session and are journaled / deadline-bounded.
// stats is executed (it reads session counters) but is neither journaled nor
// shed: replaying it later would render different counters, and it is cheap.
bool work_verb(Verb v) {
  return v == Verb::kEvaluate || v == Verb::kCampaign || v == Verb::kConform;
}

const char* verb_token(Verb v) {
  switch (v) {
    case Verb::kPing: return "ping";
    case Verb::kStats: return "stats";
    case Verb::kEvaluate: return "evaluate";
    case Verb::kCampaign: return "campaign";
    case Verb::kConform: return "conform";
    case Verb::kQuit: return "quit";
    case Verb::kInvalid: break;
  }
  return "invalid";
}

// One fully-validated request. kInvalid carries the exact `err ...` response
// line for that malformation.
struct ParsedRequest {
  Verb verb = Verb::kInvalid;
  std::vector<CutId> cuts;  // campaign targets (defaulted when empty)
  std::string dir;          // conform corpus directory
  std::string error;        // kInvalid: the full `err ...\n` response
};

ParsedRequest parse_request(const std::vector<std::string>& tokens) {
  ParsedRequest p;
  const std::string& verb = tokens[0];
  if (verb == "quit") {
    p.verb = Verb::kQuit;
  } else if (verb == "ping") {
    p.verb = Verb::kPing;
  } else if (verb == "stats") {
    p.verb = Verb::kStats;
  } else if (verb == "evaluate") {
    if (tokens.size() != 1) {
      p.error = "err evaluate takes no arguments\n";
    } else {
      p.verb = Verb::kEvaluate;
    }
  } else if (verb == "campaign") {
    for (std::size_t k = 1; k < tokens.size(); ++k) {
      CutId cut;
      if (!parse_cut_name(tokens[k], cut) || !injectable_cut(cut)) {
        p.cuts.clear();
        p.error = "err campaign: " + tokens[k] +
                  " is not an injectable CUT (alu / shifter / mul)\n";
        return p;
      }
      p.cuts.push_back(cut);
    }
    if (p.cuts.empty()) {
      p.cuts = {CutId::kAlu, CutId::kShifter, CutId::kMultiplier};
    }
    p.verb = Verb::kCampaign;
  } else if (verb == "conform" && tokens.size() == 3 && tokens[1] == "run") {
    p.verb = Verb::kConform;
    p.dir = tokens[2];
  } else {
    p.error = "err unknown command: " + verb + "\n";
  }
  return p;
}

// ---------------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------------

// One request's complete outcome: the response bytes (renderer output plus
// terminator line) and the stderr audit text, both buffered so the caller
// can emit them atomically and in admission order.
struct Response {
  std::string body;
  std::string err_text;
  int status = 0;
  bool timed_out = false;
};

// Seal-record status byte: 0 = ok, 1 = err, 2 = timeout.
std::uint8_t seal_status(const Response& r) {
  if (r.timed_out) return 2;
  return r.status == 0 ? 0 : 1;
}

std::uint64_t response_hash(const std::string& body) {
  return common::fnv1a_bytes(body.data(), body.size());
}

// Everything one request needs, shared by the request loop and the startup
// replay pass.
struct ServerState {
  ServerState(GradingSession& session_, store::ArtifactStore* store_,
              const ServeOptions& options_, Journal* journal_)
      : session(session_), store(store_), options(options_),
        journal(journal_) {}

  GradingSession& session;
  store::ArtifactStore* store;
  const ServeOptions& options;
  Journal* journal;

  // Serializes requests that drive the session's ThreadPool
  // (evaluate/campaign): ThreadPool::run_capture has exactly-one-caller
  // semantics. conform reads artifacts through the session's thread-safe
  // accessors and may overlap — unless the session cache is off, in which
  // case artifact slots are replaced under readers and EVERY work request
  // serializes.
  std::mutex exec_mu;

  // Last completed good wall time per verb — the request-level analogue of
  // the campaign watchdog's cached good-run budget. Feeds auto deadlines
  // and shed retry-after hints.
  std::mutex walls_mu;
  std::map<std::string, double> verb_walls;

  double cached_wall(const std::string& verb) {
    std::lock_guard<std::mutex> lock(walls_mu);
    const auto it = verb_walls.find(verb);
    return it == verb_walls.end() ? 0.0 : it->second;
  }
  void note_wall(const std::string& verb, double seconds) {
    std::lock_guard<std::mutex> lock(walls_mu);
    verb_walls[verb] = seconds;
  }
};

// The budget starts at ADMISSION, not at execution: time spent waiting for
// a worker or for exec_mu counts against the deadline, so a request stuck
// behind a slow one times out instead of silently serving stale work.
RequestBudget budget_for(ServerState& st, const std::string& verb) {
  RequestBudget b;
  double ms = 0;
  if (st.options.request_deadline_ms > 0) {
    ms = st.options.request_deadline_ms;
  } else if (st.options.request_deadline_ms < 0) {
    // Auto: k × the verb's last completed good wall time. First run of a
    // verb stays unlimited — there is nothing to derive a deadline from.
    const double wall = st.cached_wall(verb);
    if (wall > 0) {
      ms = std::max(kMinAutoDeadlineMs, kAutoDeadlineFactor * wall * 1e3);
    }
  }
  if (ms > 0) {
    b.ms = ms;
    b.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
  }
  return b;
}

// Retry-after hint for a shed response: the verb's cached wall time (100 ms
// default when nothing is cached yet) scaled by the backlog depth.
unsigned long long shed_hint_ms(ServerState& st, const std::string& verb,
                                std::size_t waiting) {
  double wall = st.cached_wall(verb);
  if (wall <= 0) wall = 0.1;
  const double ms = wall * 1e3 * static_cast<double>(waiting + 1);
  return static_cast<unsigned long long>(ms < 1.0 ? 1.0 : ms);
}

// Executes one already-parsed request into a buffered Response. Never
// throws: renderer exceptions become `err internal: ...` responses, so one
// poisoned request can never take the daemon down (the fault-injection
// harness depends on this).
Response run_request(ServerState& st, const ParsedRequest& req,
                     const RequestBudget& budget) {
  Response resp;
  char* body_buf = nullptr;
  std::size_t body_len = 0;
  char* err_buf = nullptr;
  std::size_t err_len = 0;
  std::FILE* rout = open_memstream(&body_buf, &body_len);
  std::FILE* rerr = open_memstream(&err_buf, &err_len);
  if (!rout || !rerr) {
    if (rout) std::fclose(rout);
    if (rerr) std::fclose(rerr);
    std::free(body_buf);
    std::free(err_buf);
    resp.body = "err internal: out of memory\n";
    resp.status = 1;
    return resp;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::string term;
  int status = 0;
  bool timed_out = false;
  try {
    if (work_verb(req.verb) && budget.expired()) {
      timed_out = true;  // the queue wait alone consumed the budget
    } else {
      switch (req.verb) {
        case Verb::kPing:
          term = "ok ping\n";
          break;
        case Verb::kStats:
          render_stats(st.session, st.store, rout, st.journal);
          term = "ok stats\n";
          break;
        case Verb::kEvaluate: {
          std::lock_guard<std::mutex> lock(st.exec_mu);
          status = render_evaluate(st.session, st.options.sim,
                                   st.options.cpu_stats, rout, rerr,
                                   st.options.fault_models);
          term = "ok evaluate\n";
          break;
        }
        case Verb::kCampaign: {
          std::lock_guard<std::mutex> lock(st.exec_mu);
          status = render_campaign(st.session, st.options.sim,
                                   st.options.max_faults, req.cuts, rout,
                                   rerr, st.options.fault_models,
                                   budget.limited() ? &budget : nullptr);
          if (status == kTimeoutStatus) {
            timed_out = true;
          } else {
            term = "ok campaign\n";
          }
          break;
        }
        case Verb::kConform: {
          std::unique_lock<std::mutex> lock;
          if (!st.options.session_cache) {
            lock = std::unique_lock<std::mutex>(st.exec_mu);
          }
          try {
            status = render_conform_run(st.session, req.dir.c_str(), rout,
                                        rerr);
            term = status == 0 ? "ok conform\n"
                               : "err conform: differential failures\n";
          } catch (const conform::ConformError& e) {
            term = std::string("err conform: ") + e.what() + "\n";
            status = 1;
          }
          break;
        }
        default:
          term = "err internal: bad verb\n";
          status = 1;
          break;
      }
    }
  } catch (const std::exception& e) {
    term = std::string("err internal: ") + e.what() + "\n";
    status = 1;
  } catch (...) {
    term = "err internal: unknown failure\n";
    status = 1;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::fprintf(rerr, "# serve: %s %.3f s\n", verb_token(req.verb), wall);
  print_store_summary(st.session, st.store, rerr);
  std::fclose(rout);
  std::fclose(rerr);

  if (timed_out) {
    // The partial render is discarded wholesale: a timeout response is one
    // structured line, never a torn table.
    char line[64];
    std::snprintf(line, sizeof line, "err timeout deadline=%.0fms\n",
                  budget.ms);
    resp.body = line;
    resp.status = kTimeoutStatus;
    resp.timed_out = true;
  } else {
    resp.body.assign(body_buf, body_len);
    resp.body += term;
    resp.status = status;
    if (status == 0 && work_verb(req.verb)) {
      st.note_wall(verb_token(req.verb), wall);
    }
  }
  resp.err_text.assign(err_buf, err_len);
  std::free(body_buf);
  std::free(err_buf);
  return resp;
}

// ---------------------------------------------------------------------------
// Startup replay pass (--replay-journal)
// ---------------------------------------------------------------------------

void replay_journal_pass(ServerState& st, const JournalScan& scan,
                         std::FILE* out, std::FILE* err) {
  const std::vector<JournalEntry> entries = scan.entries();
  std::uint64_t replayed = 0;
  std::uint64_t verified = 0;
  std::uint64_t mismatches = 0;
  for (const JournalEntry& e : entries) {
    const std::vector<std::string> tokens = tokenize(e.line);
    const ParsedRequest req =
        tokens.empty() ? ParsedRequest{} : parse_request(tokens);
    const unsigned long long seq = e.seq;
    if (!work_verb(req.verb)) {
      // Only work verbs are journaled; anything else here is damage that
      // happened to re-checksum. Skip, never execute.
      std::fprintf(err, "# replay: seq %llu skipped (not a work request)\n",
                   seq);
      continue;
    }
    const Response resp = run_request(st, req, RequestBudget{});
    const std::uint64_t hash = response_hash(resp.body);
    if (e.sealed) {
      // The crashed daemon already answered this one: re-render and audit
      // that the recovered daemon computes the same bytes, but do not
      // re-emit them.
      const bool ok =
          e.response_size == resp.body.size() && e.response_hash == hash;
      if (ok) {
        ++verified;
      } else {
        ++mismatches;
      }
      std::fprintf(err, "# replay: seq %llu %s %s\n", seq, tokens[0].c_str(),
                   ok ? "verified" : "RESPONSE MISMATCH");
    } else {
      // Begin without a seal: the crash ate this response. Re-run, emit,
      // and seal it now.
      std::fwrite(resp.body.data(), 1, resp.body.size(), out);
      std::fflush(out);
      if (!resp.err_text.empty()) {
        std::fwrite(resp.err_text.data(), 1, resp.err_text.size(), err);
      }
      st.journal->append_seal(e.seq, seal_status(resp), resp.body.size(),
                              hash);
      ++replayed;
      std::fprintf(err, "# replay: seq %llu %s recovered\n", seq,
                   tokens[0].c_str());
    }
  }
  st.journal->note_replay(replayed, verified, mismatches,
                          scan.corrupt_skipped);
  std::fprintf(err,
               "# replay: %zu entries, recovered %llu verified %llu "
               "mismatches %llu corrupt %zu%s\n",
               entries.size(), static_cast<unsigned long long>(replayed),
               static_cast<unsigned long long>(verified),
               static_cast<unsigned long long>(mismatches),
               scan.corrupt_skipped,
               scan.truncated_tail ? ", truncated tail" : "");
  std::fflush(err);
}

// ---------------------------------------------------------------------------
// Request loop: one reader, --serve-threads workers, one ordered emitter
// ---------------------------------------------------------------------------

// One admitted request in the in-order emission window. Requests answered
// at admission (ping, parse errors, shed, too-long) arrive pre-done;
// everything else waits for a worker.
struct PendingRequest {
  std::string verb;       // raw verb token, for deadlines / hints
  ParsedRequest parsed;
  RequestBudget budget;
  bool exec = false;      // needs a worker
  bool barrier = false;   // stats: all earlier requests must finish first
  bool journaled = false;
  std::uint64_t seq = 0;  // journal sequence number
  bool claimed = false;
  bool done = false;
  Response resp;
};

int run_request_loop(ServerState& st, std::uint64_t next_seq, std::FILE* in,
                     std::FILE* out, std::FILE* err) {
  std::mutex mu;
  std::condition_variable work_cv;  // workers: something may be claimable
  std::condition_variable emit_cv;  // emitter: front done, or input ended
  std::deque<std::shared_ptr<PendingRequest>> window;
  bool input_done = false;
  bool shutdown = false;

  // The first request a worker may legally claim, scanning the window in
  // admission order (mu held). A `stats` barrier claims only at the front
  // of the window, once every earlier request is emitted and sealed, and
  // nothing admitted after it starts while it is pending or running — its
  // counters must reflect exactly the requests before it, or repeated
  // scripts would render different bytes.
  const auto claimable = [&window]() -> PendingRequest* {
    for (const auto& p : window) {
      if (p->done) continue;
      if (p->claimed) {
        if (p->barrier) return nullptr;  // stats running: nothing overlaps
        continue;
      }
      if (!p->exec) return nullptr;  // defensive: pre-done requests only
      if (p->barrier && p != window.front()) return nullptr;
      return p.get();
    }
    return nullptr;
  };

  const auto worker_fn = [&]() {
    for (;;) {
      PendingRequest* p = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock,
                     [&] { return shutdown || claimable() != nullptr; });
        if (shutdown) return;
        p = claimable();
        if (!p) continue;  // raced with another worker
        p->claimed = true;
      }
      // Safe to touch *p unlocked: the emitter only pops DONE requests off
      // the front, and this one is not done until the store below.
      Response resp = run_request(st, p->parsed, p->budget);
      {
        std::lock_guard<std::mutex> lock(mu);
        p->resp = std::move(resp);
        p->done = true;
      }
      emit_cv.notify_one();
      work_cv.notify_all();  // a finished prefix may unblock a barrier
    }
  };

  // The emitter is the only thread that writes the response stream, and it
  // writes strictly in admission order — that is the whole determinism
  // argument: any interleaving of worker completions produces the same
  // bytes as answering the requests one at a time.
  const auto emitter_fn = [&]() {
    for (;;) {
      std::shared_ptr<PendingRequest> p;
      {
        std::unique_lock<std::mutex> lock(mu);
        emit_cv.wait(lock, [&] {
          return (!window.empty() && window.front()->done) ||
                 (input_done && window.empty());
        });
        if (window.empty()) return;
        p = window.front();
      }
      std::fwrite(p->resp.body.data(), 1, p->resp.body.size(), out);
      std::fflush(out);
      if (!p->resp.err_text.empty()) {
        std::fwrite(p->resp.err_text.data(), 1, p->resp.err_text.size(),
                    err);
        std::fflush(err);
      }
      if (p->journaled && st.journal) {
        // Seal only after the response bytes are flushed: a seal on disk
        // guarantees the client saw (or could have seen) the response.
        st.journal->append_seal(p->seq, seal_status(p->resp),
                                p->resp.body.size(),
                                response_hash(p->resp.body));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        window.pop_front();
      }
      work_cv.notify_all();  // a stats barrier may now be at the front
    }
  };

  std::thread emitter(emitter_fn);
  std::vector<std::thread> workers;
  const unsigned n = std::max(1u, st.options.serve_threads);
  workers.reserve(n);
  for (unsigned k = 0; k < n; ++k) workers.emplace_back(worker_fn);

  // Admits a request whose response is already known (ping, parse error,
  // shed, too-long): it joins the window pre-done so emission order still
  // matches admission order.
  const auto admit_immediate = [&](std::string body) {
    auto p = std::make_shared<PendingRequest>();
    p->resp.body = std::move(body);
    p->done = true;
    {
      std::lock_guard<std::mutex> lock(mu);
      window.push_back(std::move(p));
    }
    emit_cv.notify_one();
  };

  // The calling thread is the reader: admission, shedding, journal begins.
  std::string line;
  for (;;) {
    const ReadStatus rs = read_request_line(in, line);
    if (rs == ReadStatus::kEof) break;
    if (rs == ReadStatus::kTooLong) {
      admit_immediate("err request-too-long\n");
      continue;
    }
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const ParsedRequest req = parse_request(tokens);
    if (req.verb == Verb::kQuit) {
      admit_immediate("ok quit\n");
      break;
    }
    if (req.verb == Verb::kInvalid) {
      admit_immediate(req.error);
      continue;
    }
    if (req.verb == Verb::kPing) {
      admit_immediate("ok ping\n");
      continue;
    }

    // Bounded admission: when queue_depth work requests are already waiting
    // for a worker, shed instead of growing an unbounded backlog. stats is
    // never shed — it is a cheap counter probe.
    std::size_t waiting = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& p : window) {
        if (p->exec && !p->claimed && !p->done) ++waiting;
      }
    }
    if (work_verb(req.verb) && waiting >= st.options.queue_depth) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "err overloaded retry-after=%llums\n",
                    shed_hint_ms(st, tokens[0], waiting));
      admit_immediate(buf);
      continue;
    }

    auto p = std::make_shared<PendingRequest>();
    p->verb = tokens[0];
    p->parsed = req;
    p->exec = true;
    p->barrier = req.verb == Verb::kStats;
    if (work_verb(req.verb)) {
      p->budget = budget_for(st, tokens[0]);
      if (st.journal) {
        p->journaled = true;
        p->seq = next_seq++;
        // The begin record hits the disk BEFORE the request becomes
        // claimable — a crash at any later point leaves it recoverable.
        st.journal->append_begin(p->seq, line);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      window.push_back(std::move(p));
    }
    work_cv.notify_one();
  }

  // Shutdown: let the emitter drain the window (workers are still alive to
  // finish claimed requests), then stop the workers.
  {
    std::lock_guard<std::mutex> lock(mu);
    input_done = true;
  }
  emit_cv.notify_one();
  emitter.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    shutdown = true;
  }
  work_cv.notify_all();
  for (std::thread& w : workers) w.join();
  return 0;
}

}  // namespace

SessionOptions session_options(const ServeOptions& options,
                               std::shared_ptr<store::ArtifactStore> store) {
  return {.num_threads = options.sim.num_threads,
          .cache = options.session_cache,
          .lanes = options.sim.lanes,
          .netlist_opt = options.sim.netlist_opt,
          .budget_factor = options.budget_factor,
          .store = std::move(store)};
}

int run_serve(const ProcessorModel& model, const ServeOptions& options,
              std::shared_ptr<store::ArtifactStore> store, std::FILE* in,
              std::FILE* out, std::FILE* err) {
  GradingSession session(model, session_options(options, store));

  // Journal setup, fail-soft: an unopenable journal degrades to an
  // unjournaled daemon with one warning, never a refusal to serve.
  std::unique_ptr<Journal> journal;
  JournalScan scan;
  std::uint64_t next_seq = 0;
  if (!options.journal_path.empty()) {
    scan = Journal::scan_file(options.journal_path);
    for (const JournalRecord& r : scan.records) {
      if (r.seq >= next_seq) next_seq = r.seq + 1;
    }
    if (!scan.missing && scan.valid_end < scan.file_size) {
      // Drop damaged tail bytes before reopening for append — otherwise a
      // recovery seal written after the garbage could be unreachable to the
      // next scan and the same request would replay forever.
      std::error_code ec;
      std::filesystem::resize_file(options.journal_path, scan.valid_end, ec);
      if (ec) {
        std::fprintf(err, "# serve: journal %s: cannot trim damaged tail\n",
                     options.journal_path.c_str());
      } else {
        std::fprintf(err,
                     "# serve: journal %s: trimmed damaged tail (%zu -> %zu "
                     "bytes)\n",
                     options.journal_path.c_str(), scan.file_size,
                     scan.valid_end);
      }
    }
    journal = std::make_unique<Journal>(options.journal_path);
    if (!journal->open_append()) {
      std::fprintf(err,
                   "# serve: journal %s unavailable; running unjournaled\n",
                   options.journal_path.c_str());
      journal.reset();
    }
  } else if (options.replay_journal) {
    std::fprintf(err, "# serve: --replay-journal needs --journal FILE; "
                      "skipped\n");
  }

  ServerState st{session, store.get(), options, journal.get()};

  std::fprintf(err, "# serve: ready (engine %s, store %s)\n",
               fault::engine_name(options.sim.engine),
               store ? store->dir().c_str() : "off");
  if (journal) {
    std::fprintf(err, "# serve: journal %s (next seq %llu)\n",
                 journal->path().c_str(),
                 static_cast<unsigned long long>(next_seq));
  }
  std::fprintf(err, "# serve: %u workers, queue depth %zu\n",
               std::max(1u, options.serve_threads), options.queue_depth);
  std::fflush(err);

  if (options.replay_journal && journal) {
    replay_journal_pass(st, scan, out, err);
  }

  return run_request_loop(st, next_seq, in, out, err);
}

}  // namespace sbst::serve

#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/serve.hpp"

namespace perfbench {

using namespace sbst;
using core::CutId;
using fault::FaultModel;

// ---------------------------------------------------------------------------
// expected campaign outcomes
// ---------------------------------------------------------------------------

std::string outcome_table_path(const Config& cfg) {
  return cfg.root + "/perfbench/expect/campaign_outcomes.txt";
}

OutcomeTable OutcomeTable::load(const std::string& path) {
  std::istringstream in(read_file(path));
  OutcomeTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string cut, model, digits;
    std::size_t count = 0;
    row >> cut >> model >> count >> digits;
    for (std::size_t t = 0; t < kInjectTargets.size(); ++t) {
      if (cut == kInjectTargets[t].cut_name &&
          model == kInjectTargets[t].model_tag) {
        if (digits.size() != count) {
          throw std::runtime_error("outcome table: bad row " + cut + " " +
                                   model);
        }
        table.rows_[t] = digits;
      }
    }
  }
  for (std::size_t t = 0; t < kInjectTargets.size(); ++t) {
    if (table.rows_[t].empty()) {
      throw std::runtime_error(std::string("outcome table: no row for ") +
                               kInjectTargets[t].cut_name + " " +
                               kInjectTargets[t].model_tag);
    }
  }
  return table;
}

void OutcomeTable::record(core::GradingSession& session,
                          const core::TestProgram& program,
                          const std::string& path) {
  std::ofstream out(path);
  out << "# Expected RunOutcome digit (0 ok_match, 1 mismatch, 2 hang, 3 trap,\n"
         "# 4 wild store, 5 infra error) of every collapsed fault, in\n"
         "# universe order. Columns: cut model faults digits.\n";
  for (const InjectTarget& target : kInjectTargets) {
    const std::vector<fault::Fault>& all =
        session.universe(target.cut, target.model).collapsed();
    std::string digits;
    constexpr std::size_t kChunk = 1024;
    for (std::size_t begin = 0; begin < all.size(); begin += kChunk) {
      const std::vector<fault::Fault> chunk(
          all.begin() + static_cast<std::ptrdiff_t>(begin),
          all.begin() + static_cast<std::ptrdiff_t>(
                            std::min(all.size(), begin + kChunk)));
      for (const core::InjectionOutcome& o :
           core::run_injection_campaign(session, program, target.cut,
                                        chunk)) {
        digits.push_back(static_cast<char>('0' + static_cast<int>(o.outcome)));
      }
      std::fprintf(stderr, "# record %s %s: %zu/%zu\n", target.cut_name,
                   target.model_tag, digits.size(), all.size());
    }
    out << target.cut_name << ' ' << target.model_tag << ' ' << digits.size()
        << ' ' << digits << '\n';
  }
}

int OutcomeTable::expected(std::size_t t, std::size_t index) const {
  return index < rows_[t].size() ? rows_[t][index] - '0' : -1;
}

void OutcomeTable::corrupt(std::size_t t, std::size_t index) {
  char& c = rows_[t][index];
  c = c == '1' ? '2' : '1';
}

std::vector<std::size_t> OutcomeTable::sample(std::size_t t,
                                              std::size_t count,
                                              Rng& rng) const {
  const std::string& row = rows_[t];
  std::array<std::vector<std::size_t>, core::kRunOutcomeCount> classes;
  for (std::size_t i = 0; i < row.size(); ++i) {
    classes[static_cast<std::size_t>(row[i] - '0')].push_back(i);
  }
  std::array<std::size_t, core::kRunOutcomeCount> quota{};
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t given = 0;
  for (std::size_t d = 0; d < classes.size(); ++d) {
    const double exact = static_cast<double>(count * classes[d].size()) /
                         static_cast<double>(row.size());
    quota[d] = static_cast<std::size_t>(exact);
    given += quota[d];
    remainder.emplace_back(exact - static_cast<double>(quota[d]), d);
  }
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; given < count; ++k, ++given) {
    ++quota[remainder[k].second];
  }
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < classes.size(); ++d) {
    for (std::size_t i : sample_indices(classes[d].size(), quota[d], rng)) {
      out.push_back(classes[d][i]);
    }
  }
  return out;
}

std::vector<std::size_t> campaign_sample(const Config& cfg,
                                         const OutcomeTable& table,
                                         std::size_t pass, std::size_t t,
                                         std::size_t count) {
  Rng rng(mix_seed({cfg.seed, 0xca3a16u, pass, t}));
  return table.sample(t, count, rng);
}

std::vector<core::InjectionOutcome> run_checked_campaign(
    Fixture& f, const OutcomeTable& table, std::size_t t,
    const std::vector<std::size_t>& sample, Result& result) {
  const InjectTarget& target = kInjectTargets[t];
  const std::vector<fault::Fault>& all =
      f.session->universe(target.cut, target.model).collapsed();
  if (all.size() != table.universe(t)) {
    result.fail(std::string("universe size changed for ") + target.cut_name +
                " " + target.model_tag);
  }
  std::vector<fault::Fault> faults;
  faults.reserve(sample.size());
  for (std::size_t i : sample) faults.push_back(all[i]);
  std::vector<core::InjectionOutcome> outcomes = core::run_injection_campaign(
      *f.session, f.program, target.cut, faults);
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    ++result.attempted;
    const int got = static_cast<int>(outcomes[k].outcome);
    const int want = table.expected(t, sample[k]);
    if (outcomes[k].outcome == core::RunOutcome::kInfraError || got != want) {
      ++result.failed;
    }
    if (got != want) {
      result.fail(std::string("campaign ") + target.cut_name + " " +
                  target.model_tag + " fault " + std::to_string(sample[k]) +
                  ": outcome " + std::to_string(got) + ", expected " +
                  std::to_string(want));
    }
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// evaluate: closed loop, one caller, stuck-at only
// ---------------------------------------------------------------------------

Result run_evaluate(const Config& cfg) {
  Result result;
  std::string golden = read_file(cfg.root + "/ci/golden/sbst_evaluate.stdout");
  if (cfg.corrupt_expectation) golden[golden.size() / 2] ^= 1;
  const std::vector<FaultModel> models = {FaultModel::kStuckAt};
  auto evaluate = [&](Fixture& f) {
    const std::string out = render_evaluate_stdout(*f.session, cfg, models);
    ++result.attempted;
    if (out != golden) {
      ++result.failed;
      result.fail("evaluate stdout differs from ci/golden/sbst_evaluate.stdout");
    }
  };

  measure_setup(cfg, 15, result);
  // The first evaluation on a fresh session pays every artifact build, as
  // each one-shot `sbst evaluate` does.
  Fixture f = measure_first_op(cfg, 7, result, evaluate);

  std::vector<double> walls;
  const auto start = Clock::now();
  while (walls.size() < 3 || seconds_since(start) < cfg.seconds) {
    const auto t0 = Clock::now();
    evaluate(f);
    walls.push_back(seconds_since(t0));
  }
  double total = 0;
  for (double w : walls) total += w;
  result.metrics.set("op_p50_s", median(walls), "s");
  result.metrics.set("rate_per_s", static_cast<double>(walls.size()) / total,
                     "1/s");
  return result;
}

// ---------------------------------------------------------------------------
// campaign: closed loop over run_injection_campaign
// ---------------------------------------------------------------------------

Result run_campaign(const Config& cfg) {
  Result result;
  OutcomeTable table = OutcomeTable::load(outcome_table_path(cfg));
  const std::string golden =
      read_file(cfg.root + "/ci/golden/sbst_campaign.stdout");
  // One-shot `sbst campaign`: default cuts, 32 faults each, stuck-at.
  auto one_shot = [&](Fixture& f) {
    Capture out, err;
    const int status = serve::render_campaign(
        *f.session, cfg.sim(cfg.threads), 32,
        {CutId::kAlu, CutId::kShifter, CutId::kMultiplier}, out.file(),
        err.file(), {FaultModel::kStuckAt});
    ++result.attempted;
    if (status != 0 || out.take() != golden) {
      ++result.failed;
      result.fail("campaign table differs from ci/golden/sbst_campaign.stdout");
    }
  };

  measure_setup(cfg, 15, result);
  Fixture f = measure_first_op(cfg, 3, result, one_shot);
  // Let the transient universes and the good run settle before timing.
  for (const InjectTarget& target : kInjectTargets) {
    f.session->universe(target.cut, target.model);
    f.session->compiled(target.cut);
  }
  f.session->good_run(f.program);

  std::vector<double> walls;
  std::size_t faults = 0;
  const auto start = Clock::now();
  for (std::size_t pass = 0;
       walls.size() < 2 || seconds_since(start) < cfg.seconds; ++pass) {
    std::array<std::vector<std::size_t>, kInjectTargets.size()> samples;
    for (std::size_t t = 0; t < kInjectTargets.size(); ++t) {
      samples[t] = campaign_sample(cfg, table, pass, t, kCampaignSample);
    }
    if (cfg.corrupt_expectation && pass == 0) table.corrupt(0, samples[0][0]);
    const auto t0 = Clock::now();
    for (std::size_t t = 0; t < kInjectTargets.size(); ++t) {
      faults += run_checked_campaign(f, table, t, samples[t], result).size();
    }
    walls.push_back(seconds_since(t0));
  }
  double total = 0;
  for (double w : walls) total += w;
  result.metrics.set("op_p50_s", median(walls), "s");
  result.metrics.set("rate_per_s", static_cast<double>(faults) / total, "1/s");
  return result;
}

// ---------------------------------------------------------------------------
// serve: open loop against an in-process daemon
// ---------------------------------------------------------------------------

const char* req_kind_name(ReqKind k) {
  switch (k) {
    case ReqKind::kPing: return "ping";
    case ReqKind::kStats: return "stats";
    case ReqKind::kConform: return "conform";
    case ReqKind::kCampaignMul: return "campaign";
    case ReqKind::kCampaignShifter: return "campaign";
    case ReqKind::kEvaluate: return "evaluate";
  }
  return "?";
}

namespace {

// Requests per block of the serve mix; each block is shuffled by the seed,
// so every run sends the same proportions in a different order.
constexpr std::array<std::pair<ReqKind, unsigned>, kReqKinds> kMixBlock = {{
    {ReqKind::kPing, 5},
    {ReqKind::kStats, 3},
    {ReqKind::kConform, 6},
    {ReqKind::kCampaignMul, 3},
    {ReqKind::kCampaignShifter, 2},
    {ReqKind::kEvaluate, 1},
}};

std::vector<ServeRun::Req> serve_schedule(const Config& cfg, double window) {
  Rng rng(mix_seed({cfg.seed, 0x5e77eu}));
  // A Poisson process conditioned on its count: round(rate * window)
  // arrivals at sorted uniform times, so every run offers the same load.
  const auto count =
      static_cast<std::size_t>(std::lround(kServeRate * window));
  std::vector<double> due(count);
  for (double& t : due) t = window * rng.unit();
  std::sort(due.begin(), due.end());
  std::vector<ReqKind> block;
  std::vector<ServeRun::Req> reqs;
  for (const double t : due) {
    if (block.empty()) {
      for (const auto& [kind, n] : kMixBlock) block.insert(block.end(), n, kind);
      for (std::size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1], block[rng.below(i)]);
      }
    }
    ServeRun::Req r;
    r.kind = block.back();
    block.pop_back();
    r.due = t;
    reqs.push_back(r);
  }
  return reqs;
}

struct Expectations {
  std::array<std::string, kReqKinds> line;
  std::array<std::string, kReqKinds> body;
};

// One-shot renders of every request kind, on a session of their own: the
// bytes the daemon must answer with.
Expectations serve_expectations(const Config& cfg,
                                const core::ProcessorModel& model) {
  Expectations e;
  const std::string corpus = cfg.root + "/tests/corpus/v1";
  e.line = {"ping", "stats", "conform run " + corpus, "campaign mul",
            "campaign shifter", "evaluate"};
  core::GradingSession session(model, cfg.session());
  const fault::SimOptions sim = cfg.sim(cfg.threads);
  const std::vector<FaultModel> models = {FaultModel::kStuckAt,
                                          FaultModel::kTransientSEU};
  auto render = [&](ReqKind k, auto&& fn) {
    Capture out, err;
    if (fn(out.file(), err.file()) != 0) {
      throw std::runtime_error(std::string("one-shot render failed: ") +
                               e.line[static_cast<std::size_t>(k)]);
    }
    e.body[static_cast<std::size_t>(k)] =
        out.take() + "ok " + req_kind_name(k) + "\n";
  };
  e.body[static_cast<std::size_t>(ReqKind::kPing)] = "ok ping\n";
  render(ReqKind::kConform, [&](std::FILE* o, std::FILE* er) {
    return serve::render_conform_run(session, corpus.c_str(), o, er);
  });
  render(ReqKind::kCampaignMul, [&](std::FILE* o, std::FILE* er) {
    return serve::render_campaign(session, sim, kServeMaxFaults,
                                  {CutId::kMultiplier}, o, er, models);
  });
  render(ReqKind::kCampaignShifter, [&](std::FILE* o, std::FILE* er) {
    return serve::render_campaign(session, sim, kServeMaxFaults,
                                  {CutId::kShifter}, o, er, models);
  });
  render(ReqKind::kEvaluate, [&](std::FILE* o, std::FILE* er) {
    return serve::render_evaluate(session, sim, false, o, er, models);
  });
  if (cfg.corrupt_expectation) {
    std::string& body = e.body[static_cast<std::size_t>(ReqKind::kConform)];
    body[body.size() / 2] ^= 1;
  }
  return e;
}

// `stats` is a counter snapshot of the daemon's own history, so it has no
// one-shot twin; its body must have the session/store/journal lines.
bool stats_body_ok(const std::string& body) {
  return body.starts_with("session: universe ") &&
         body.find("\nstore: none\n") != std::string::npos &&
         body.find("\njournal: begins ") != std::string::npos &&
         body.ends_with("\nok stats\n");
}

// Terminators and daemon exec lines, as the reader threads see them.
struct Stream {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::string, Clock::time_point>> responses;
  std::vector<std::pair<std::string, double>> execs;      // verb, seconds
};

}  // namespace

ServeRun run_serve_load(const Config& cfg, const core::ProcessorModel& model,
                        double window, Result& result) {
  const Expectations expect = serve_expectations(cfg, model);
  ServeRun run;
  for (std::size_t k = 0; k < kReqKinds; ++k) {
    ServeRun::Req r;
    r.kind = static_cast<ReqKind>(k);
    run.warmup.push_back(r);
  }
  run.measured = serve_schedule(cfg, window);

  serve::ServeOptions so;
  so.sim = cfg.sim(kServePoolThreads);
  so.session_cache = true;
  so.budget_factor = core::kDefaultBudgetFactor;
  so.max_faults = kServeMaxFaults;
  so.fault_models = {FaultModel::kStuckAt, FaultModel::kTransientSEU};
  so.serve_threads = kServeThreads;
  so.queue_depth = 16;
  so.request_deadline_ms = kServeDeadlineMs;
  so.journal_path = cfg.scratch + "/serve.wal";

  int in_fd[2], out_fd[2], err_fd[2];
  if (pipe(in_fd) != 0 || pipe(out_fd) != 0 || pipe(err_fd) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::FILE* din = fdopen(in_fd[0], "r");
  std::FILE* dout = fdopen(out_fd[1], "w");
  std::FILE* derr = fdopen(err_fd[1], "w");
  std::FILE* rout = fdopen(out_fd[0], "r");
  std::FILE* rerr = fdopen(err_fd[0], "r");

  Stream stream;
  std::thread daemon([&] {
    run.daemon_status =
        serve::run_serve(model, so, nullptr, din, dout, derr);
    std::fclose(dout);
    std::fclose(derr);
  });
  std::thread out_reader([&] {
    char* line = nullptr;
    std::size_t cap = 0;
    std::string body;
    while (getline(&line, &cap, rout) > 0) {
      body += line;
      if (std::strncmp(line, "ok ", 3) == 0 ||
          std::strncmp(line, "err ", 4) == 0) {
        std::lock_guard<std::mutex> lock(stream.mu);
        stream.responses.emplace_back(std::move(body), Clock::now());
        body.clear();
        stream.cv.notify_all();
      }
    }
    std::free(line);
  });
  std::thread err_reader([&] {
    char* line = nullptr;
    std::size_t cap = 0;
    while (getline(&line, &cap, rerr) > 0) {
      char verb[32];
      double secs = 0;
      char unit = 0;
      if (std::sscanf(line, "# serve: %31s %lf %c", verb, &secs, &unit) == 3 &&
          unit == 's') {
        std::lock_guard<std::mutex> lock(stream.mu);
        stream.execs.emplace_back(verb, secs);
      }
    }
    std::free(line);
  });

  auto send = [&](const ServeRun::Req& r) {
    const std::string line = expect.line[static_cast<std::size_t>(r.kind)] + "\n";
    if (write(in_fd[1], line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      throw std::runtime_error("serve: request write failed");
    }
  };
  auto wait_for = [&](std::size_t count, double limit_s) {
    std::unique_lock<std::mutex> lock(stream.mu);
    stream.cv.wait_for(
        lock, std::chrono::duration<double>(limit_s),
        [&] { return stream.responses.size() >= count; });
  };

  // Warm-up round: one request of each kind to the fresh daemon.
  run.warmup_origin = Clock::now();
  for (ServeRun::Req& r : run.warmup) send(r);
  wait_for(run.warmup.size(), 120);
  run.warmup_s = seconds_since(run.warmup_origin);

  // The measured schedule, timed from each request's due time.
  run.origin = Clock::now() + std::chrono::milliseconds(100);
  for (ServeRun::Req& r : run.measured) {
    std::this_thread::sleep_until(
        run.origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(r.due)));
    r.sent = seconds_since(run.origin);
    send(r);
  }
  wait_for(run.warmup.size() + run.measured.size(), 90);
  const std::string quit = "quit\n";
  if (write(in_fd[1], quit.data(), quit.size()) < 0) {
    std::fprintf(stderr, "# serve: quit write failed\n");
  }
  close(in_fd[1]);
  daemon.join();
  out_reader.join();
  err_reader.join();
  std::fclose(din);
  std::fclose(rout);
  std::fclose(rerr);

  std::error_code ec;
  run.journal_bytes = static_cast<std::size_t>(
      std::filesystem::file_size(so.journal_path, ec));

  // Responses arrive in admission order; pair them with their requests.
  // Executed requests print one `# serve: <verb> <s> s` line each, in the
  // same order (answers made at admission, like ping, print none).
  std::size_t next_exec = 0;
  std::size_t index = 0;
  for (auto [list, origin] : {std::pair{&run.warmup, run.warmup_origin},
                               std::pair{&run.measured, run.origin}}) {
    for (ServeRun::Req& r : *list) {
      ++result.attempted;
      const std::size_t k = static_cast<std::size_t>(r.kind);
      if (index >= stream.responses.size()) {
        ++result.failed;
        result.fail(std::string("serve: no answer to ") + expect.line[k]);
        continue;
      }
      const auto& [body, arrival] = stream.responses[index++];
      r.done = std::chrono::duration<double>(arrival - origin).count();
      const std::size_t nl = body.rfind('\n', body.size() - 2);
      const std::string term = body.substr(nl == std::string::npos ? 0 : nl + 1);
      r.ok = term.starts_with("ok ");
      r.shed = term.starts_with("err overloaded");
      r.timeout = term.starts_with("err timeout");
      if (!r.shed && r.kind != ReqKind::kPing &&
          next_exec < stream.execs.size() &&
          stream.execs[next_exec].first == req_kind_name(r.kind)) {
        r.exec = stream.execs[next_exec++].second;
      }
      if (!r.ok) {
        // Shed and timed-out requests count as failed; any other error is
        // a wrong answer.
        ++result.failed;
        if (!r.shed && !r.timeout) result.fail("serve: " + term);
        continue;
      }
      r.body_ok = r.kind == ReqKind::kStats ? stats_body_ok(body)
                                            : body == expect.body[k];
      if (!r.body_ok) {
        ++result.failed;
        result.fail("serve: `" + expect.line[k] +
                    "` answered differently from its one-shot render");
      }
    }
  }
  if (run.daemon_status != 0) result.fail("serve: daemon exited nonzero");
  return run;
}

}  // namespace perfbench

// The benchmark's workloads (closed-loop evaluate and campaign), their
// correctness expectations, and the open-loop serve load generator the
// traced run drives.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/inject.hpp"

namespace perfbench {

/// One (CUT, fault model) injection target of the campaign workload.
struct InjectTarget {
  sbst::core::CutId cut;
  sbst::fault::FaultModel model;
  const char* cut_name;
  const char* model_tag;
};

inline constexpr std::array<InjectTarget, 6> kInjectTargets = {{
    {sbst::core::CutId::kAlu, sbst::fault::FaultModel::kStuckAt, "alu", "sa"},
    {sbst::core::CutId::kAlu, sbst::fault::FaultModel::kTransientSEU, "alu",
     "seu"},
    {sbst::core::CutId::kShifter, sbst::fault::FaultModel::kStuckAt,
     "shifter", "sa"},
    {sbst::core::CutId::kShifter, sbst::fault::FaultModel::kTransientSEU,
     "shifter", "seu"},
    {sbst::core::CutId::kMultiplier, sbst::fault::FaultModel::kStuckAt, "mul",
     "sa"},
    {sbst::core::CutId::kMultiplier, sbst::fault::FaultModel::kTransientSEU,
     "mul", "seu"},
}};

/// Expected RunOutcome of every collapsed fault of every InjectTarget, as
/// recorded by `perfbench --record-outcomes` (one digit per fault, in
/// collapsed-universe order).
class OutcomeTable {
 public:
  static OutcomeTable load(const std::string& path);
  /// Records the table by running every collapsed fault (slow: minutes).
  static void record(sbst::core::GradingSession& session,
                     const sbst::core::TestProgram& program,
                     const std::string& path);
  /// Expected outcome digit of fault `index` of target `t` (-1 if absent).
  int expected(std::size_t t, std::size_t index) const;
  std::size_t universe(std::size_t t) const { return rows_[t].size(); }
  void corrupt(std::size_t t, std::size_t index);
  /// Seeded sample of `count` collapsed-fault indices of target `t`,
  /// stratified by recorded outcome: each outcome class gets its
  /// proportional share (largest remainder), drawn uniformly within the
  /// class. Every fault is (up to rounding) equally likely, and every sample
  /// carries the universe's outcome mix, so the work per sample varies
  /// little from seed to seed.
  std::vector<std::size_t> sample(std::size_t t, std::size_t count,
                                  Rng& rng) const;

 private:
  std::array<std::string, kInjectTargets.size()> rows_;
};

std::string outcome_table_path(const Config& cfg);

/// The campaign sample of target `t` for pass `pass` of this run's seed.
std::vector<std::size_t> campaign_sample(const Config& cfg,
                                         const OutcomeTable& table,
                                         std::size_t pass, std::size_t t,
                                         std::size_t count);

/// Runs one campaign over a sample and checks every outcome against the
/// table. Returns the faulty runs' outcomes.
std::vector<sbst::core::InjectionOutcome> run_checked_campaign(
    Fixture& f, const OutcomeTable& table, std::size_t t,
    const std::vector<std::size_t>& sample, Result& result);

// ---------------------------------------------------------------------------
// serve open loop
// ---------------------------------------------------------------------------

enum class ReqKind { kPing, kStats, kConform, kCampaignMul, kCampaignShifter,
                     kEvaluate };
inline constexpr std::size_t kReqKinds = 6;
const char* req_kind_name(ReqKind k);

/// Everything one open-loop serve session observed.
struct ServeRun {
  struct Req {
    ReqKind kind;
    double due = 0;      // seconds after the schedule origin
    double sent = 0;     // when the generator wrote it (measured only)
    double done = -1;    // terminator arrival (-1 = never answered)
    double exec = -1;    // the daemon's own `# serve:` wall, when printed
    bool ok = false;     // `ok <verb>` terminator
    bool shed = false;   // `err overloaded`
    bool timeout = false;  // `err timeout`
    bool body_ok = false;  // body matched its expectation
  };
  std::vector<Req> warmup;    // one of each kind, before the schedule
  std::vector<Req> measured;  // the Poisson schedule
  Clock::time_point warmup_origin;  // warm-up round sent
  Clock::time_point origin;         // the schedule's time zero
  double warmup_s = 0;        // fresh daemon: warm-up round wall
  std::size_t journal_bytes = 0;
  int daemon_status = 0;
};

/// Starts an in-process `run_serve` daemon over pipes, sends one warm-up
/// request of each kind, then a seeded Poisson schedule at kServeRate for
/// `window` seconds, and checks every `ok` body.
ServeRun run_serve_load(const Config& cfg,
                        const sbst::core::ProcessorModel& model,
                        double window, Result& result);

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

Result run_evaluate(const Config& cfg);
Result run_campaign(const Config& cfg);

}  // namespace perfbench

// `sbst serve`: a warm, long-running campaign daemon over one shared
// GradingSession, plus the renderers it shares with the one-shot CLI.
//
// The one-shot CLI pays the full artifact cost (collapse, compile, decode,
// good run) on every invocation — the persistent store removes the rebuild
// cost but not the process-startup or deserialization cost. serve keeps one
// GradingSession alive across requests instead, so the second and every
// later request starts fully warm, and layers the store underneath for
// warm-across-process restarts.
//
// Protocol: deterministic line-oriented request/response on (in, out).
// One request per line, tokens separated by spaces:
//
//   ping                 liveness probe
//   evaluate             run + fault-grade the full SBST program
//   campaign [<cut>...]  guarded injection campaign (default alu shifter mul)
//   conform run <dir>    three-executor differential replay of a corpus
//   stats                session + store counters (deterministic: no clocks)
//   quit                 exit cleanly (EOF does too)
//
// Each request's response is exactly the bytes the one-shot CLI command
// would print to stdout — the renderers below are the SAME code both paths
// call — followed by one terminator line: `ok <verb>` on success or
// `err <detail>` on failure. The stream is flushed after every request.
// Timings, engine config, and store summaries go to `err` only, so the
// response stream stays byte-deterministic for any engine / lanes / thread
// count / store temperature.
// Robustness layer (the hardened daemon):
//
//  * One request loop (`--serve-threads N`, default 1): a reader admits
//    requests ahead of N workers into a bounded admission queue; each
//    response is rendered into a per-request buffer and emitted strictly in
//    admission order, so a client that waits for each response sees the
//    same byte stream for any worker count.
//  * Overload shedding: when the admission queue is full, new work requests
//    are answered immediately with `err overloaded retry-after=<ms>`
//    instead of growing an unbounded backlog, at one worker too.
//  * Per-request deadlines (`--request-deadline`): a RequestBudget turns a
//    runaway request into a structured `err timeout deadline=<ms>ms`
//    response. The budget starts at admission, is checked before execution
//    (queue wait counts against it) and cooperatively between campaign
//    gradings.
//  * Write-ahead journal (`--journal FILE`, see journal.hpp): work requests
//    are journaled before execution and sealed after their response is
//    flushed; `--replay-journal` re-runs unsealed requests after a crash
//    and re-renders sealed ones to verify the recorded response hashes.
//  * Bounded request lines: anything longer than kMaxRequestLine answers
//    `err request-too-long` and the loop survives.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/inject.hpp"
#include "core/session.hpp"
#include "serve/journal.hpp"
#include "store/artifact_store.hpp"

namespace sbst::serve {

/// Upper bound on one request line; longer lines are consumed and answered
/// with `err request-too-long` instead of growing an unbounded std::string
/// from a hostile or broken client.
inline constexpr std::size_t kMaxRequestLine = 4096;

/// render_campaign's status when a RequestBudget expired mid-render (the
/// partial response is discarded and replaced by `err timeout ...`).
inline constexpr int kTimeoutStatus = 124;

/// Request configuration shared by every command a serve loop (or one-shot
/// CLI invocation) runs.
struct ServeOptions {
  fault::SimOptions sim;
  bool session_cache = true;
  bool cpu_stats = false;
  double budget_factor = core::kDefaultBudgetFactor;
  std::size_t max_faults = 32;
  /// Fault models evaluate/campaign grade under (--fault-model /
  /// SBST_FAULT_MODEL). The default — stuck-at only — renders the exact
  /// legacy stdout; any other selection adds a Model column. Empty behaves
  /// as {kStuckAt}.
  std::vector<fault::FaultModel> fault_models = {fault::FaultModel::kStuckAt};

  /// Request workers for `serve` (--serve-threads; 0 runs as 1). A reader
  /// thread admits requests ahead of the workers and an emitter writes the
  /// responses in admission order, so response bytes are the same for
  /// every worker count.
  unsigned serve_threads = 1;
  /// Bounded admission queue (--serve-queue): work requests waiting for a
  /// worker beyond this depth shed with `err overloaded retry-after=<ms>`,
  /// at any worker count.
  std::size_t queue_depth = 16;
  /// Per-request wall-clock deadline in milliseconds (--request-deadline).
  /// 0 = unlimited (the default); a positive value applies to every work
  /// request; negative = "auto": each verb's deadline is derived from the
  /// cached wall time of its last completed good run (kAutoDeadlineFactor
  /// × that, floored at kMinAutoDeadlineMs), mirroring the campaign
  /// watchdog's k × good-run budget at the request level. The first run of
  /// a verb is unlimited (nothing cached yet).
  double request_deadline_ms = 0;
  /// Write-ahead journal file (--journal). Empty = unjournaled. Open
  /// failures degrade to an unjournaled daemon with one stderr warning.
  std::string journal_path;
  /// Replay the journal before serving (--replay-journal): unsealed
  /// requests re-run and emit their responses (crash recovery); sealed
  /// requests re-render and verify the recorded response hash.
  bool replay_journal = false;
};

/// Multiplier for auto deadlines (k in k × cached good wall time).
inline constexpr double kAutoDeadlineFactor = 8.0;
/// Floor for auto-derived deadlines (a verb measured at ~0 ms must not get
/// an impossible budget).
inline constexpr double kMinAutoDeadlineMs = 50.0;

/// Wall-clock budget of one request — PR 5's watchdog design lifted to the
/// request level. `ms <= 0` means unlimited.
struct RequestBudget {
  std::chrono::steady_clock::time_point deadline{};
  double ms = 0;

  bool limited() const { return ms > 0; }
  bool expired() const {
    return limited() && std::chrono::steady_clock::now() >= deadline;
  }
};

/// Parses a CLI/protocol cut name (mul div rf mem shifter alu ctrl).
bool parse_cut_name(const std::string& name, core::CutId& out);

/// Parses a comma-separated fault-model list ("stuck-at,transient"; the
/// per-model aliases of fault::parse_fault_model apply). Repeated models
/// collapse to one entry, first occurrence wins the order. Returns false on
/// an empty spec, an empty element, or an unknown name; `out` is then left
/// untouched.
bool parse_fault_model_list(const std::string& spec,
                            std::vector<fault::FaultModel>& out);

/// True for the CUTs the injection campaign can target (alu, shifter, mul).
bool injectable_cut(core::CutId id);

/// The GradingSession configuration `options` describes, over `store`.
core::SessionOptions session_options(
    const ServeOptions& options, std::shared_ptr<store::ArtifactStore> store);

/// Resolved engine/lane/optimization configuration, to `err` only.
void print_engine_config(const fault::SimOptions& sim, std::FILE* err);

/// Per-artifact store counters of `session` (one line, `err` audience).
void print_store_summary(const core::GradingSession& session,
                         const store::ArtifactStore* store, std::FILE* err);

// Command renderers. Byte-for-byte the one-shot CLI commands' stdout when
// given `out` = stdout; serve points them at its response stream. Each
// returns the command's exit status (0 = success).
int render_evaluate(core::GradingSession& session,
                    const fault::SimOptions& sim, bool cpu_stats,
                    std::FILE* out, std::FILE* err,
                    const std::vector<fault::FaultModel>& fault_models = {});
int render_campaign(core::GradingSession& session,
                    const fault::SimOptions& sim, std::size_t max_faults,
                    const std::vector<core::CutId>& cuts, std::FILE* out,
                    std::FILE* err,
                    const std::vector<fault::FaultModel>& fault_models = {},
                    const RequestBudget* budget = nullptr);
int render_conform_run(core::GradingSession& session, const char* dir,
                       std::FILE* out, std::FILE* err);

/// The `stats` verb: session build/hit counters, store counters, and — when
/// the daemon is journaled — journal totals. Purely counter-valued (no
/// wall-clock), so repeated identical request sequences produce identical
/// output.
void render_stats(const core::GradingSession& session,
                  const store::ArtifactStore* store, std::FILE* out,
                  const Journal* journal = nullptr);

/// Runs the serve loop until `quit` or EOF on `in`. Returns the process
/// exit status.
int run_serve(const core::ProcessorModel& model, const ServeOptions& options,
              std::shared_ptr<store::ArtifactStore> store, std::FILE* in,
              std::FILE* out, std::FILE* err);

}  // namespace sbst::serve

// `sbst serve` protocol loop: sequential requests over one warm session,
// deterministic response bytes (a repeated request renders identically, and
// identically to the one-shot renderer — for ANY worker count), error
// handling that keeps the loop alive, clean EOF/quit shutdown, per-request
// deadlines, overload shedding, bounded request lines, and the write-ahead
// journal round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "serve/journal.hpp"
#include "serve/serve.hpp"

namespace sbst::serve {
namespace {

using core::ProcessorModel;

ProcessorModel& model() {
  static ProcessorModel m;
  return m;
}

// Small request budget so campaign gradings stay fast.
ServeOptions fast_options() {
  ServeOptions options;
  options.sim.num_threads = 2;
  options.max_faults = 2;
  return options;
}

struct ServeResult {
  int status;
  std::string out;
  std::string err;
};

// Feeds `script` to run_serve over in-memory streams.
ServeResult run_script(const std::string& script,
                       const ServeOptions& options,
                       std::shared_ptr<store::ArtifactStore> store = nullptr) {
  std::FILE* in = fmemopen(const_cast<char*>(script.data()),
                           script.size() ? script.size() : 1, "r");
  if (script.empty()) {
    // fmemopen needs a nonzero size; emulate EOF with an already-consumed
    // one-byte stream.
    std::fgetc(in);
  }
  char* out_buf = nullptr;
  std::size_t out_len = 0;
  std::FILE* out = open_memstream(&out_buf, &out_len);
  char* err_buf = nullptr;
  std::size_t err_len = 0;
  std::FILE* err = open_memstream(&err_buf, &err_len);

  ServeResult r;
  r.status = run_serve(model(), options, std::move(store), in, out, err);
  std::fclose(in);
  std::fclose(out);
  std::fclose(err);
  r.out.assign(out_buf, out_len);
  r.err.assign(err_buf, err_len);
  std::free(out_buf);
  std::free(err_buf);
  return r;
}

// Splits a response stream into per-request segments, each ending at its
// `ok <verb>` / `err ...` terminator line.
std::vector<std::string> split_responses(const std::string& out) {
  std::vector<std::string> segments;
  std::string current;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t eol = out.find('\n', pos);
    const std::string line = out.substr(pos, eol - pos);
    current += line + "\n";
    if (line.rfind("ok ", 0) == 0 || line.rfind("err ", 0) == 0) {
      segments.push_back(current);
      current.clear();
    }
    pos = eol == std::string::npos ? out.size() : eol + 1;
  }
  EXPECT_TRUE(current.empty()) << "unterminated response: " << current;
  return segments;
}

TEST(Serve, PingStatsAndQuit) {
  const ServeResult r = run_script("ping\nstats\nquit\n", fast_options());
  EXPECT_EQ(r.status, 0);
  const std::vector<std::string> seg = split_responses(r.out);
  ASSERT_EQ(seg.size(), 3u);
  EXPECT_EQ(seg[0], "ok ping\n");
  EXPECT_NE(seg[1].find("session: universe 0/0"), std::string::npos);
  EXPECT_NE(seg[1].find("store: none"), std::string::npos);
  EXPECT_NE(seg[1].find("ok stats"), std::string::npos);
  EXPECT_EQ(seg[2], "ok quit\n");
}

TEST(Serve, EofAndBlankLinesExitCleanly) {
  EXPECT_EQ(run_script("", fast_options()).status, 0);
  EXPECT_EQ(run_script("\n\n", fast_options()).status, 0);
}

TEST(Serve, ErrorsKeepTheLoopAlive) {
  const ServeResult r = run_script(
      "bogus\ncampaign div\nconform run /nonexistent-dir\nping\nquit\n",
      fast_options());
  EXPECT_EQ(r.status, 0);
  const std::vector<std::string> seg = split_responses(r.out);
  ASSERT_EQ(seg.size(), 5u);
  EXPECT_EQ(seg[0], "err unknown command: bogus\n");
  EXPECT_NE(seg[1].find("err campaign: div is not an injectable CUT"),
            std::string::npos);
  EXPECT_EQ(seg[2].rfind("err conform:", 0), 0u);
  EXPECT_EQ(seg[3], "ok ping\n");
  EXPECT_EQ(seg[4], "ok quit\n");
}

TEST(Serve, RepeatedCampaignRendersIdenticalBytesWarm) {
  const ServeResult r =
      run_script("campaign alu\ncampaign alu\nquit\n", fast_options());
  EXPECT_EQ(r.status, 0);
  const std::vector<std::string> seg = split_responses(r.out);
  ASSERT_EQ(seg.size(), 3u);
  // Second request runs fully warm off the shared session yet renders the
  // exact same bytes as the cold first request.
  EXPECT_GT(seg[0].size(), std::string("ok campaign\n").size());
  EXPECT_EQ(seg[0], seg[1]);
  EXPECT_NE(seg[0].find("ok campaign"), std::string::npos);
}

TEST(Serve, CampaignResponseMatchesOneShotRenderer) {
  const ServeOptions options = fast_options();
  const ServeResult r = run_script("campaign alu\nquit\n", options);
  const std::vector<std::string> seg = split_responses(r.out);
  ASSERT_EQ(seg.size(), 2u);

  // Render the same campaign through the renderer directly (what the
  // one-shot CLI command does) and compare bytes.
  core::SessionOptions sopts;
  sopts.num_threads = options.sim.num_threads;
  sopts.budget_factor = options.budget_factor;
  core::GradingSession session(model(), sopts);
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  char* err_buf = nullptr;
  std::size_t err_len = 0;
  std::FILE* err = open_memstream(&err_buf, &err_len);
  const int status = render_campaign(session, options.sim,
                                     options.max_faults,
                                     {core::CutId::kAlu}, out, err);
  std::fclose(out);
  std::fclose(err);
  EXPECT_EQ(status, 0);
  const std::string direct(buf, len);
  std::free(buf);
  std::free(err_buf);
  EXPECT_EQ(seg[0], direct + "ok campaign\n");
}

TEST(Serve, StatsReflectWorkAndStoreUsage) {
  const ServeResult r =
      run_script("campaign alu\nstats\nquit\n", fast_options());
  const std::vector<std::string> seg = split_responses(r.out);
  ASSERT_EQ(seg.size(), 3u);
  // After a campaign the session has built artifacts; with no store
  // configured the store line stays "none".
  EXPECT_EQ(seg[1].find("universe 0/0"), std::string::npos);
  EXPECT_NE(seg[1].find("store: none"), std::string::npos);
}

// ---- worker counts and shedding --------------------------------------------

TEST(Serve, ConcurrentLoopRendersIdenticalBytesToSerial) {
  // A mixed script — work verbs, probes, errors — through the request loop
  // at one worker and at 2 and 4 workers. The ordered emitter must make the
  // response streams byte-identical, including the stats barrier (whose
  // counters depend on every earlier request having finished).
  const std::string script =
      "ping\ncampaign alu\nbogus\ncampaign alu shifter\nstats\n"
      "campaign mul\nping\nstats\nquit\n";
  const ServeResult base = run_script(script, fast_options());
  EXPECT_EQ(base.status, 0);
  for (const unsigned threads : {2u, 4u}) {
    ServeOptions options = fast_options();
    options.serve_threads = threads;
    const ServeResult r = run_script(script, options);
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.out, base.out) << "serve_threads=" << threads;
  }
}

TEST(Serve, ConcurrentLoopHandlesErrorsAndQuit) {
  ServeOptions options = fast_options();
  options.serve_threads = 2;
  const ServeResult r = run_script(
      "bogus\ncampaign div\nconform run /nonexistent-dir\nping\nquit\n",
      options);
  EXPECT_EQ(r.status, 0);
  const std::vector<std::string> seg = split_responses(r.out);
  ASSERT_EQ(seg.size(), 5u);
  EXPECT_EQ(seg[0], "err unknown command: bogus\n");
  EXPECT_NE(seg[1].find("err campaign: div is not an injectable CUT"),
            std::string::npos);
  EXPECT_EQ(seg[2].rfind("err conform:", 0), 0u);
  EXPECT_EQ(seg[3], "ok ping\n");
  EXPECT_EQ(seg[4], "ok quit\n");
}

TEST(Serve, ConcurrentLoopShedsWhenQueueIsFull) {
  // One worker sheds too: the reader admits requests ahead of it.
  for (const unsigned threads : {1u, 2u}) {
    ServeOptions options = fast_options();
    options.serve_threads = threads;
    options.queue_depth = 1;
    std::string script;
    const std::size_t kRequests = 8;
    for (std::size_t k = 0; k < kRequests; ++k) script += "campaign alu\n";
    script += "quit\n";
    const ServeResult r = run_script(script, options);
    EXPECT_EQ(r.status, 0);
    const std::vector<std::string> seg = split_responses(r.out);
    ASSERT_EQ(seg.size(), kRequests + 1) << "threads=" << threads;
    std::size_t ok = 0, shed = 0;
    for (std::size_t k = 0; k < kRequests; ++k) {
      if (seg[k].find("ok campaign") != std::string::npos) {
        ++ok;
      } else {
        EXPECT_EQ(seg[k].rfind("err overloaded retry-after=", 0), 0u)
            << seg[k];
        ++shed;
      }
    }
    // The first request always admits; the reader outpaces sub-second
    // campaigns so at least one later request must find the queue full.
    EXPECT_GE(ok, 1u) << "threads=" << threads;
    EXPECT_GE(shed, 1u) << "threads=" << threads;
    EXPECT_EQ(seg[kRequests], "ok quit\n");
  }
}

// ---- deadlines ------------------------------------------------------------

TEST(Serve, DeadlineTimeoutIsStructuredAndKeepsTheLoopAlive) {
  for (const unsigned threads : {1u, 2u}) {
    ServeOptions options = fast_options();
    options.serve_threads = threads;
    options.request_deadline_ms = 1;  // no campaign finishes in 1 ms
    const ServeResult r =
        run_script("campaign alu\nping\nquit\n", options);
    EXPECT_EQ(r.status, 0);
    const std::vector<std::string> seg = split_responses(r.out);
    ASSERT_EQ(seg.size(), 3u) << "threads=" << threads;
    // The timed-out response is ONE structured line — the partially
    // rendered table is discarded, never emitted torn.
    EXPECT_EQ(seg[0], "err timeout deadline=1ms\n");
    EXPECT_EQ(seg[1], "ok ping\n");
    EXPECT_EQ(seg[2], "ok quit\n");
  }
}

TEST(Serve, AutoDeadlineLeavesHealthyRequestsAlone) {
  // "auto" derives each verb's deadline from its last good run: the first
  // campaign runs unlimited, the second warm one finishes far inside
  // 8 x the cold wall time. Both must succeed.
  ServeOptions options = fast_options();
  options.request_deadline_ms = -1;
  const ServeResult r =
      run_script("campaign alu\ncampaign alu\nquit\n", options);
  EXPECT_EQ(r.status, 0);
  const std::vector<std::string> seg = split_responses(r.out);
  ASSERT_EQ(seg.size(), 3u);
  EXPECT_NE(seg[0].find("ok campaign"), std::string::npos);
  EXPECT_EQ(seg[0], seg[1]);
}

// ---- bounded request lines ------------------------------------------------

TEST(Serve, OversizedRequestLineAnswersAndSurvives) {
  const std::string huge(2 * kMaxRequestLine, 'x');
  for (const unsigned threads : {1u, 2u}) {
    ServeOptions options = fast_options();
    options.serve_threads = threads;
    const ServeResult r =
        run_script(huge + "\nping\nquit\n", options);
    EXPECT_EQ(r.status, 0);
    const std::vector<std::string> seg = split_responses(r.out);
    ASSERT_EQ(seg.size(), 3u) << "threads=" << threads;
    EXPECT_EQ(seg[0], "err request-too-long\n");
    EXPECT_EQ(seg[1], "ok ping\n");
    EXPECT_EQ(seg[2], "ok quit\n");
  }
}

// ---- write-ahead journal --------------------------------------------------

struct TempJournal {
  std::filesystem::path path;
  explicit TempJournal(const std::string& tag) {
    path = std::filesystem::path(::testing::TempDir()) /
           (std::string("sbst-journal-") + tag + ".wal");
    std::filesystem::remove(path);
  }
  ~TempJournal() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  std::string str() const { return path.string(); }
};

TEST(Serve, JournalRecordsBeginsAndSealsForWorkVerbs) {
  TempJournal journal("roundtrip");
  ServeOptions options = fast_options();
  options.journal_path = journal.str();
  const ServeResult r =
      run_script("ping\ncampaign alu\nstats\nquit\n", options);
  EXPECT_EQ(r.status, 0);
  // Only the work verb is journaled: ping and stats are probes whose
  // replayed bytes could never verify.
  const JournalScan scan = Journal::scan_file(journal.str());
  EXPECT_FALSE(scan.missing);
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.corrupt_skipped, 0u);
  const std::vector<JournalEntry> entries = scan.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].line, "campaign alu");
  EXPECT_TRUE(entries[0].sealed);
  EXPECT_EQ(entries[0].status, 0);
  EXPECT_GT(entries[0].response_size, 0u);
  // The stats response reports the journal's counters.
  const std::vector<std::string> seg = split_responses(r.out);
  ASSERT_EQ(seg.size(), 4u);
  EXPECT_NE(seg[2].find("journal: begins 1 seals 1"), std::string::npos);
}

TEST(Serve, JournalSequencesContinueAcrossRestarts) {
  TempJournal journal("restart");
  ServeOptions options = fast_options();
  options.journal_path = journal.str();
  EXPECT_EQ(run_script("campaign alu\nquit\n", options).status, 0);
  EXPECT_EQ(run_script("campaign alu\nquit\n", options).status, 0);
  const std::vector<JournalEntry> entries =
      Journal::scan_file(journal.str()).entries();
  ASSERT_EQ(entries.size(), 2u);
  // The second daemon scanned the existing file and continued numbering —
  // colliding sequence numbers would corrupt begin/seal pairing on replay.
  EXPECT_EQ(entries[0].seq, 0u);
  EXPECT_EQ(entries[1].seq, 1u);
  EXPECT_TRUE(entries[0].sealed);
  EXPECT_TRUE(entries[1].sealed);
}

TEST(Serve, ReplayRecoversUnsealedRequestByteIdentically) {
  TempJournal journal("replay");
  // Simulate a crash between begin and seal: a begin record with no seal,
  // exactly what a SIGKILL mid-campaign leaves behind.
  {
    Journal j(journal.str());
    ASSERT_TRUE(j.open_append());
    ASSERT_TRUE(j.append_begin(0, "campaign alu"));
  }
  ServeOptions options = fast_options();
  options.journal_path = journal.str();
  options.replay_journal = true;
  const ServeResult recovered = run_script("quit\n", options);
  EXPECT_EQ(recovered.status, 0);

  // The recovered response must be byte-identical to serving the request
  // normally (minus the trailing quit acknowledgement).
  const ServeResult direct = run_script("campaign alu\nquit\n",
                                        fast_options());
  const std::vector<std::string> direct_seg = split_responses(direct.out);
  ASSERT_EQ(direct_seg.size(), 2u);
  EXPECT_EQ(recovered.out, direct_seg[0] + "ok quit\n");

  // The replay sealed the entry: a second replay verifies instead of
  // re-emitting.
  const std::vector<JournalEntry> entries =
      Journal::scan_file(journal.str()).entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].sealed);
  const ServeResult verified = run_script("quit\n", options);
  EXPECT_EQ(verified.out, "ok quit\n");
  EXPECT_NE(verified.err.find("verified"), std::string::npos);
}

TEST(Serve, ParseCutNameAndInjectableCut) {
  core::CutId id;
  ASSERT_TRUE(parse_cut_name("alu", id));
  EXPECT_EQ(id, core::CutId::kAlu);
  ASSERT_TRUE(parse_cut_name("div", id));
  EXPECT_EQ(id, core::CutId::kDivider);
  EXPECT_FALSE(parse_cut_name("nope", id));
  EXPECT_TRUE(injectable_cut(core::CutId::kAlu));
  EXPECT_TRUE(injectable_cut(core::CutId::kShifter));
  EXPECT_TRUE(injectable_cut(core::CutId::kMultiplier));
  EXPECT_FALSE(injectable_cut(core::CutId::kDivider));
  EXPECT_FALSE(injectable_cut(core::CutId::kControl));
}

}  // namespace
}  // namespace sbst::serve

// `sbst evaluate` end to end under the grading configurations the CLI does
// not offer. The CLI always grades with the event engine at W=4, netlist
// passes on, critical-path tracing (`lane_parallel`) on and the session
// cache on; the library keeps the fields behind those settings. Each test
// renders the evaluate stdout through the CLI's own path
// (serve::session_options + render_evaluate) with those fields changed, and
// demands the bytes of the CI golden. The default-program tests check that
// one session assembles the program once and renders it to the same bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "serve/serve.hpp"

namespace sbst::serve {
namespace {

using fault::FaultModel;

std::string golden(const std::string& name) {
  std::ifstream in(std::string(SBST_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The stdout one render writes to `out` (its stderr is dropped).
template <typename Render>
std::string stdout_of(Render render) {
  char* out_buf = nullptr;
  std::size_t out_len = 0;
  std::FILE* out = open_memstream(&out_buf, &out_len);
  char* err_buf = nullptr;
  std::size_t err_len = 0;
  std::FILE* err = open_memstream(&err_buf, &err_len);
  EXPECT_EQ(render(out, err), 0);
  std::fclose(out);
  std::fclose(err);
  std::string text(out_buf, out_len);
  std::free(out_buf);
  std::free(err_buf);
  return text;
}

const core::ProcessorModel& model() {
  static const core::ProcessorModel m;
  return m;
}

// The stdout `sbst evaluate` prints under `options`, on `session`.
std::string render(core::GradingSession& session,
                   const ServeOptions& options) {
  return stdout_of([&](std::FILE* out, std::FILE* err) {
    return render_evaluate(session, options.sim, options.cpu_stats, out, err,
                           options.fault_models);
  });
}

// The same on a fresh session.
std::string render(const ServeOptions& options) {
  core::GradingSession session(model(), session_options(options, nullptr));
  return render(session, options);
}

// The stdout of `sbst campaign` (the CUTs of its golden), on `session`.
std::string render_campaign(core::GradingSession& session,
                            const ServeOptions& options) {
  return stdout_of([&](std::FILE* out, std::FILE* err) {
    return serve::render_campaign(
        session, options.sim, options.max_faults,
        {core::CutId::kAlu, core::CutId::kShifter, core::CutId::kMultiplier},
        out, err);
  });
}

TEST(ConfigIdentity, BlockScheduleWithoutSessionCacheMatchesGolden) {
  ServeOptions options;
  options.sim.num_threads = 4;
  options.sim.lane_parallel = false;
  options.session_cache = false;
  EXPECT_EQ(render(options), golden("sbst_evaluate.stdout"));
}

TEST(ConfigIdentity, SingleWordLanesWithoutNetlistPassesMatchGolden) {
  ServeOptions options;
  options.sim.num_threads = 2;
  options.sim.lanes = 1;
  options.sim.netlist_opt = 0;
  EXPECT_EQ(render(options), golden("sbst_evaluate.stdout"));
}

TEST(ConfigIdentity, EveryFaultModelAtSingleWordLanesMatchesGolden) {
  ServeOptions options;
  options.sim.num_threads = 4;
  options.sim.lanes = 1;
  options.fault_models = {FaultModel::kStuckAt, FaultModel::kTransition,
                          FaultModel::kTransientSEU,
                          FaultModel::kIntermittent};
  EXPECT_EQ(render(options), golden("sbst_evaluate_models.stdout"));
}

// A session assembles the default program once: every render hands out the
// same object, and the renders stay byte-identical to the goldens.
TEST(DefaultProgram, RendersShareOneCachedProgramAndMatchTheGoldens) {
  ServeOptions options;
  options.sim.num_threads = 2;
  core::GradingSession session(model(), session_options(options, nullptr));
  const std::string evaluate = golden("sbst_evaluate.stdout");
  const std::string campaign = golden("sbst_campaign.stdout");

  EXPECT_EQ(render(session, options), evaluate);
  const std::shared_ptr<const core::DefaultProgram> first =
      session.default_program();
  EXPECT_EQ(render(session, options), evaluate);
  EXPECT_EQ(render_campaign(session, options), campaign);
  EXPECT_EQ(render_campaign(session, options), campaign);
  EXPECT_EQ(session.default_program().get(), first.get());
}

TEST(DefaultProgram, CacheOffRebuildsAndRendersTheSameBytes) {
  ServeOptions options;
  options.sim.num_threads = 2;
  options.session_cache = false;
  core::GradingSession session(model(), session_options(options, nullptr));
  const std::shared_ptr<const core::DefaultProgram> first =
      session.default_program();
  EXPECT_NE(session.default_program().get(), first.get());
  // The replaced handout stays valid and equal to its rebuild.
  EXPECT_EQ(first->program.image.words,
            session.default_program()->program.image.words);
  EXPECT_EQ(render(session, options), golden("sbst_evaluate.stdout"));
  EXPECT_EQ(render_campaign(session, options), golden("sbst_campaign.stdout"));
}

}  // namespace
}  // namespace sbst::serve

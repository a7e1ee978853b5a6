// `sbst evaluate` end to end under the grading configurations the CLI does
// not offer. The CLI always grades with the event engine at W=4, netlist
// passes on, critical-path tracing (`lane_parallel`) on and the session
// cache on; the library keeps the fields behind those settings. Each test
// renders the evaluate stdout through the CLI's own path
// (serve::session_options + render_evaluate) with those fields changed, and
// demands the bytes of the CI golden.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
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

// The stdout `sbst evaluate` prints under `options`, on a fresh session.
std::string render(const ServeOptions& options) {
  static const core::ProcessorModel model;
  core::GradingSession session(model, session_options(options, nullptr));
  char* out_buf = nullptr;
  std::size_t out_len = 0;
  std::FILE* out = open_memstream(&out_buf, &out_len);
  char* err_buf = nullptr;
  std::size_t err_len = 0;
  std::FILE* err = open_memstream(&err_buf, &err_len);
  EXPECT_EQ(render_evaluate(session, options.sim, options.cpu_stats, out, err,
                            options.fault_models),
            0);
  std::fclose(out);
  std::fclose(err);
  std::string text(out_buf, out_len);
  std::free(out_buf);
  std::free(err_buf);
  return text;
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

}  // namespace
}  // namespace sbst::serve

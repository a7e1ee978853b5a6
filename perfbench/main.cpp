// perfbench — the sbst benchmark binary.
//
//   perfbench --workload evaluate|campaign --seed N --seconds S
//             --trace 0|1 [--root DIR] [--corrupt-expectation]
//   perfbench --record-outcomes FILE [--root DIR]
//   perfbench --list-metrics
//
// Runs one named workload in this process and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of the traced run with
// --trace 1. The run's configuration is printed on the line before it.
// Exits 1 when any output differs from its expectation, 2 on bad usage.
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

int usage() {
  std::fputs(
      "usage: perfbench --workload evaluate|campaign --seed N "
      "--seconds S --trace 0|1 [--root DIR] [--corrupt-expectation]\n"
      "       perfbench --record-outcomes FILE [--root DIR]\n"
      "       perfbench --list-metrics\n",
      stderr);
  return 2;
}

// The library falls back to SBST_* variables for every setting left at its
// default; the benchmark sets each one explicitly and removes them all, so a
// stray variable can change neither the configuration nor the results.
void scrub_sbst_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    if (std::strncmp(*e, "SBST_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e)
                                : std::strlen(*e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

// Per-run scratch directory (serve journal, traced store), removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

 private:
  std::string path_;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  scrub_sbst_env();
  Config cfg;
  std::string record_path;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      if (!parse_u64(argv[++i], cfg.seed)) return usage();
    } else if (a == "--seconds" && has_value) {
      if (!parse_u64(argv[++i], v) || v == 0) return usage();
      cfg.seconds = static_cast<double>(v);
    } else if (a == "--trace" && has_value) {
      if (!parse_u64(argv[++i], v) || v > 1) return usage();
      cfg.trace = v == 1;
      have_trace = true;
    } else if (a == "--root" && has_value) {
      cfg.root = argv[++i];
    } else if (a == "--record-outcomes" && has_value) {
      record_path = argv[++i];
    } else if (a == "--list-metrics") {
      for (const PerLayer& m : per_layer_metrics()) {
        std::printf("{\"name\": \"%s\", \"unit\": \"%s\", "
                    "\"better\": \"%s\", \"moves\": \"%s\"}\n",
                    m.name.c_str(), m.unit.c_str(), m.better.c_str(),
                    m.moves.c_str());
      }
      return 0;
    } else if (a == "--corrupt-expectation") {
      cfg.corrupt_expectation = true;
    } else {
      return usage();
    }
  }
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = std::min(4u, cfg.nproc);

  try {
    if (!record_path.empty()) {
      Fixture f = build_fixture(cfg);
      OutcomeTable::record(*f.session, f.program, record_path);
      return 0;
    }
    if (cfg.workload != "evaluate" && cfg.workload != "campaign") {
      return usage();
    }
    if (!have_trace) return usage();

    cfg.scratch = cfg.root + "/.bench_build/run-" + std::to_string(getpid());
    const ScratchDir scratch(cfg.scratch);

    Result result;
    if (cfg.trace) {
      result = run_traced(cfg);
    } else if (cfg.workload == "evaluate") {
      result = run_evaluate(cfg);
    } else {
      result = run_campaign(cfg);
    }
    if (!cfg.trace) result.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");

    for (const std::string& p : result.problems) {
      std::fprintf(stderr, "perfbench: MISMATCH: %s\n", p.c_str());
    }
    std::printf("# config: %s\n", cfg.describe().c_str());
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        result.correct ? "true" : "false",
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed),
        result.metrics.json().c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// Shared pieces of the sbst benchmark binary: the pinned configuration,
// timing and statistics helpers, the seeded sampler, and the metric sink
// every workload writes into.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/session.hpp"
#include "fault/sim_parallel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Everything a run depends on, set explicitly (the library's SBST_*
/// environment fallbacks are scrubbed before any library call).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string root = ".";  // checkout root: ci/golden, tests/corpus
  std::string scratch;     // per-run scratch dir (journal, store)
  unsigned nproc = 1;
  unsigned threads = 4;  // pool threads for evaluate / campaign
  /// Self-test hook: corrupt one expectation so the run must fail.
  bool corrupt_expectation = false;

  sbst::fault::SimOptions sim(unsigned num_threads) const;
  /// Session options with `threads` pool threads.
  sbst::core::SessionOptions session() const;
  /// One-line JSON description printed beside every result.
  std::string describe() const;
};

/// Campaign sample: faults per (cut, model) per pass.
inline constexpr std::size_t kCampaignSample = 24;
/// Serve daemon request workers, pool threads and per-CUT fault cap.
inline constexpr unsigned kServeThreads = 2;
inline constexpr unsigned kServePoolThreads = 2;
inline constexpr std::size_t kServeMaxFaults = 8;
/// Offered serve load in requests/s (about 60 % of the daemon's capacity
/// for the request mix) and the per-request deadline.
inline constexpr double kServeRate = 2.3;
inline constexpr double kServeDeadlineMs = 15000;

/// Seeded generator (splitmix64): identical streams on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Uniform in (0, 1).
  double unit() { return (static_cast<double>(next() >> 11) + 0.5) / 9007199254740992.0; }

 private:
  std::uint64_t state_;
};

/// Mixes several values into one seed.
std::uint64_t mix_seed(std::initializer_list<std::uint64_t> parts);

/// `count` distinct indices drawn uniformly from [0, n), in draw order.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count,
                                        Rng& rng);

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// Named metrics in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": u}, ...}`
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> order_;
};

/// Outcome of a workload run: counts against attempts, and whether every
/// output matched its expectation.
struct Result {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Human-readable reasons for every mismatch (printed to stderr).
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20 &&
        std::find(problems.begin(), problems.end(), why) == problems.end()) {
      problems.push_back(why);
    }
  }
};

/// An in-memory FILE* sink (open_memstream) whose bytes are read back once.
class Capture {
 public:
  Capture();
  ~Capture();
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;
  std::FILE* file() { return file_; }
  /// Closes the stream and returns everything written to it.
  std::string take();

 private:
  std::FILE* file_ = nullptr;
  char* buf_ = nullptr;
  std::size_t len_ = 0;
};

std::string read_file(const std::string& path);

/// The pieces every workload builds first: the processor model, the SBST
/// program, and a session with its pool and the decoded program.
struct Fixture {
  std::unique_ptr<sbst::core::ProcessorModel> model;
  std::unique_ptr<sbst::core::TestProgramBuilder> builder;
  sbst::core::TestProgram program;
  std::unique_ptr<sbst::core::GradingSession> session;
};

Fixture build_fixture(const Config& cfg);

/// setup_s: the median wall of `reps` fresh fixture builds.
void measure_setup(const Config& cfg, unsigned reps, Result& result);

/// first_op_s: the median wall of `op` on `reps` fresh fixtures; returns
/// the last fixture, its session warm.
Fixture measure_first_op(const Config& cfg, unsigned reps, Result& result,
                         const std::function<void(Fixture&)>& op);

/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();

/// The stuck-at-only evaluate render, as `sbst evaluate` prints it.
std::string render_evaluate_stdout(sbst::core::GradingSession& session,
                                   const Config& cfg,
                                   const std::vector<sbst::fault::FaultModel>&
                                       models);

}  // namespace perfbench

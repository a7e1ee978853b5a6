#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "serve/serve.hpp"

namespace perfbench {

using namespace sbst;

fault::SimOptions Config::sim(unsigned num_threads) const {
  fault::SimOptions s;
  s.num_threads = num_threads;
  s.lane_parallel = true;
  s.engine = fault::Engine::kEvent;
  s.lanes = 4;
  s.netlist_opt = 1;
  s.store = nullptr;
  return s;
}

core::SessionOptions Config::session() const {
  core::SessionOptions s;
  s.num_threads = threads;
  s.cache = true;
  s.lanes = 4;
  s.netlist_opt = 1;
  s.budget_factor = core::kDefaultBudgetFactor;
  s.store = nullptr;
  return s;
}

std::string Config::describe() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"threads\": %u, \"engine\": \"event\", \"lanes\": 4, "
      "\"netlist_opt\": 1, \"lane_parallel\": 1, \"session_cache\": 1, "
      "\"store\": \"off\", \"budget_factor\": %g, \"campaign_sample\": %zu, "
      "\"serve_threads\": %u, \"serve_pool_threads\": %u, "
      "\"serve_max_faults\": %zu, \"serve_rate\": %g, "
      "\"compiler\": \"%s\", \"flags\": \"%s\"}",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, nproc, threads, core::kDefaultBudgetFactor,
      kCampaignSample, kServeThreads, kServePoolThreads, kServeMaxFaults,
      kServeRate, PERFBENCH_COMPILER, PERFBENCH_BUILD_FLAGS);
  return buf;
}

std::uint64_t mix_seed(std::initializer_list<std::uint64_t> parts) {
  std::uint64_t h = 0x2545f4914f6cdd1dull;
  for (std::uint64_t p : parts) {
    Rng r(h ^ p);
    h = r.next();
  }
  return h;
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count,
                                        Rng& rng) {
  count = std::min(count, n);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(idx[i], idx[i + rng.below(n - i)]);
  }
  idx.resize(count);
  return idx;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    char num[64];
    std::snprintf(num, sizeof num, "%.9g", std::isfinite(value) ? value : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

Capture::Capture() : file_(open_memstream(&buf_, &len_)) {
  if (!file_) throw std::runtime_error("open_memstream failed");
}

Capture::~Capture() {
  if (file_) std::fclose(file_);
  std::free(buf_);
}

std::string Capture::take() {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
  return std::string(buf_ ? buf_ : "", len_);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Fixture build_fixture(const Config& cfg) {
  Fixture f;
  f.model = std::make_unique<core::ProcessorModel>();
  f.builder = std::make_unique<core::TestProgramBuilder>();
  f.builder->add_default_routines(*f.model);
  f.program = f.builder->build();
  f.session = std::make_unique<core::GradingSession>(*f.model,
                                                     cfg.session());
  f.session->decoded(f.program.image);
  return f;
}

void measure_setup(const Config& cfg, unsigned reps, Result& result) {
  std::vector<double> walls;
  for (unsigned r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const Fixture f = build_fixture(cfg);
    walls.push_back(seconds_since(t0));
  }
  result.metrics.set("setup_s", median(walls), "s");
}

Fixture measure_first_op(const Config& cfg, unsigned reps, Result& result,
                         const std::function<void(Fixture&)>& op) {
  std::vector<double> walls;
  Fixture f;
  for (unsigned r = 0; r < reps; ++r) {
    f.session.reset();  // the session goes before the model it points at
    f = build_fixture(cfg);
    const auto t0 = Clock::now();
    op(f);
    walls.push_back(seconds_since(t0));
  }
  result.metrics.set("first_op_s", median(walls), "s");
  std::fprintf(stderr, "# first_op_s walls:");
  for (double w : walls) std::fprintf(stderr, " %.4f", w);
  std::fputc('\n', stderr);
  return f;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string render_evaluate_stdout(
    core::GradingSession& session, const Config& cfg,
    const std::vector<fault::FaultModel>& models) {
  Capture out, err;
  const int status =
      serve::render_evaluate(session, cfg.sim(cfg.threads), false,
                             out.file(), err.file(), models);
  if (status != 0) throw std::runtime_error("render_evaluate failed");
  return out.take();
}

}  // namespace perfbench

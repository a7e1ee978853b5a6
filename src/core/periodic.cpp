#include "core/periodic.hpp"

#include <algorithm>
#include <cmath>

#include "fault/thread_pool.hpp"

namespace sbst::core {

bool fault_active_at(const FaultProcess& fault, double t) {
  if (t < fault.arrival_s) return false;
  const double rel = t - fault.arrival_s;
  switch (fault.kind) {
    case FaultKind::kPermanent:
      return true;
    case FaultKind::kIntermittent: {
      if (fault.period_s <= 0) return true;
      const double phase = std::fmod(rel, fault.period_s);
      return phase < fault.active_s;
    }
    case FaultKind::kTransient:
      return rel < fault.active_s;
  }
  return false;
}

double expected_permanent_latency(const PeriodicConfig& config) {
  // A permanent fault arriving uniformly within a test period waits on
  // average half a period, plus the test execution itself.
  return config.test_period_s / 2 + config.test_exec_s;
}

double intermittent_duty_cycle(const FaultProcess& fault) {
  if (fault.kind != FaultKind::kIntermittent || fault.period_s <= 0) {
    return 1.0;
  }
  return std::min(1.0, fault.active_s / fault.period_s);
}

ChunkingReport chunked_execution(std::uint64_t program_cycles,
                                 std::uint64_t quantum_cycles,
                                 std::uint64_t context_switch_cycles,
                                 std::uint64_t cache_refill_cycles) {
  ChunkingReport out;
  if (quantum_cycles == 0) quantum_cycles = 1;
  out.chunks = static_cast<std::size_t>(
      (program_cycles + quantum_cycles - 1) / quantum_cycles);
  if (out.chunks == 0) out.chunks = 1;
  const std::uint64_t extras = out.chunks - 1;
  out.switch_overhead_cycles = extras * context_switch_cycles;
  // Each resumption finds its working set evicted by the interleaved user
  // process — the cache-refill cost the paper warns about.
  out.cache_refill_cycles = extras * cache_refill_cycles;
  out.total_cycles =
      program_cycles + out.switch_overhead_cycles + out.cache_refill_cycles;
  return out;
}

PeriodicResult simulate_periodic(const PeriodicConfig& config,
                                 const FaultProcess& fault,
                                 std::size_t trials, Rng& rng) {
  PeriodicResult out;
  out.trials = trials;
  double latency_sum = 0.0;
  double hang_latency_sum = 0.0;

  // Per-kind measured overrides; with the defaults (< 0) these resolve to
  // the config globals and every RNG draw below is unchanged.
  const ModelMeasurement& mm =
      config.measured[static_cast<std::size_t>(fault.kind)];
  const double coverage =
      mm.coverage >= 0 ? mm.coverage : config.fault_coverage;
  const double hang_fraction =
      mm.hang_fraction >= 0 ? mm.hang_fraction : config.hang_fraction;
  const double detect_exec_s =
      mm.detect_exec_s >= 0 ? mm.detect_exec_s : config.test_exec_s;

  for (std::size_t trial = 0; trial < trials; ++trial) {
    // Randomise the fault arrival within one test period so results do not
    // depend on phase alignment.
    FaultProcess f = fault;
    f.arrival_s = fault.arrival_s +
                  static_cast<double>(rng.next32()) / 4294967296.0 *
                      config.test_period_s;

    double t = 0.0;
    std::optional<double> detection;
    bool by_hang = false;
    while (t < config.horizon_s) {
      double launch = t + config.test_period_s;
      if (config.policy == LaunchPolicy::kIdle) {
        // Idle launches jitter uniformly within +/- half a period.
        launch = t + config.test_period_s *
                         (0.5 + static_cast<double>(rng.next32()) /
                                    4294967296.0);
      } else if (config.policy == LaunchPolicy::kStartup) {
        launch = t + config.horizon_s;  // only one run per horizon
      }
      if (launch >= config.horizon_s) break;
      // The test detects the fault if the fault is active while the test
      // executes and the fault lies in the covered set.
      const bool active = fault_active_at(f, launch) ||
                          fault_active_at(f, launch + config.test_exec_s / 2);
      if (active && rng.chance(coverage)) {
        // Symptom detections (hang/trap/wild store) complete when the OS
        // watchdog fires, not when the signature unload would have run.
        // The hang_fraction > 0 gate keeps the legacy draw stream intact
        // when the symptom split is not modelled.
        if (hang_fraction > 0 && rng.chance(hang_fraction)) {
          by_hang = true;
          detection = launch + (config.watchdog_s > 0 ? config.watchdog_s
                                                      : detect_exec_s);
        } else {
          by_hang = false;
          detection = launch + detect_exec_s;
        }
        break;
      }
      t = launch;
    }
    if (detection) {
      ++out.detected;
      const double latency = *detection - f.arrival_s;
      latency_sum += latency;
      out.max_latency_s = std::max(out.max_latency_s, latency);
      if (by_hang) {
        ++out.detected_by_hang;
        hang_latency_sum += latency;
      }
    }
  }

  out.detection_probability =
      trials == 0 ? 0.0
                  : static_cast<double>(out.detected) /
                        static_cast<double>(trials);
  out.mean_latency_s =
      out.detected == 0 ? 0.0 : latency_sum / static_cast<double>(out.detected);
  out.mean_hang_latency_s =
      out.detected_by_hang == 0
          ? 0.0
          : hang_latency_sum / static_cast<double>(out.detected_by_hang);
  out.cpu_overhead = config.policy == LaunchPolicy::kStartup
                         ? config.test_exec_s / config.horizon_s
                         : config.test_exec_s / config.test_period_s;
  return out;
}

std::vector<PeriodicResult> simulate_periodic_campaign(
    fault::ThreadPool& pool, const PeriodicConfig& config,
    const std::vector<FaultProcess>& faults, std::size_t trials,
    std::uint64_t seed) {
  std::vector<PeriodicResult> out(faults.size());
  pool.run(faults.size(), [&](std::size_t i) {
    // Golden-ratio stream split: fault i always sees the same draws no
    // matter which worker runs it or how many workers exist.
    Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    out[i] = simulate_periodic(config, faults[i], trials, rng);
  });
  return out;
}

}  // namespace sbst::core

// The traced run: re-drives each layer from outside, the way
// evaluate_program and the campaign compose them, recording a span around
// every call, and derives the per-layer metrics from the spans.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// In-memory span recorder: name, start, end, parent. Spans nest by scope
/// on the recording thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    double elapsed() const;

   private:
    Tracer& tracer_;
    int index_;
  };

  Tracer() : origin_(Clock::now()) {}
  double now() const { return seconds_since(origin_); }
  /// Tracer time of a clock reading.
  double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  /// Records a span under `parent` (default: the innermost open span).
  int add(std::string name, double start, double end, int parent = -2);
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part of it covered by direct children.
  double self_time(std::size_t index) const;
  /// Writes every span as JSON lines.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A per-layer metric: its unit, which direction is better, and the
/// end-to-end metric and workload it should move.
struct PerLayer {
  std::string name;
  std::string unit;
  std::string better;
  std::string moves;
};

/// Every metric the traced run prints, in print order.
std::vector<PerLayer> per_layer_metrics();

Result run_traced(const Config& cfg);

}  // namespace perfbench

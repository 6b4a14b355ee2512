#pragma once

// The traced pass: per-layer metrics for one workload. Counts come from
// the run's own metrics snapshot (or CloudResult) and are exact. Times come
// from a layer pass that drives each layer's public functions from outside
// with the operation counts and sizes the run's snapshot reports, one span
// per layer. `<layer>.est_share` scales a pass's ns/op by the run's op
// count and divides by the run's wall time: an outside estimate of the
// layer's share, not an in-program profile.

#include <string>
#include <vector>

#include "bench/spans.hpp"
#include "bench/workloads.hpp"

namespace perfbench {

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
  /// Non-empty: the metric does not apply to this workload, and why. The
  /// value is then 0.
  std::string na;
};

/// Every per-layer metric as (name, unit), in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

struct TracedReport {
  std::vector<LayerMetric> metrics;  ///< one per catalog entry, in order
  RunOutcome run;                    ///< the traced call's outcome
  SpanRecorder spans;
};

/// Run `w` (inputs generated) once inside spans around every call the
/// benchmark makes into a module, then the layer pass. `untraced_wall_s`
/// is the same call's wall time without spans, for the overhead metric.
TracedReport traced_run(const Workload& w, double untraced_wall_s);

}  // namespace perfbench

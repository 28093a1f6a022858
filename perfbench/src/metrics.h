// Names and units of every metric the benchmark prints. BENCHMARK.json at
// the repository root lists the same names; a unit test keeps the two in
// step.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Printed by an untraced run (--trace 0).
const std::vector<MetricSpec>& EndToEndMetrics();

/// Printed by a traced run (--trace 1). A layer a workload bypasses
/// reports 0 with a sample count of 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Labels of the client walks (schemes.<walk>.*), program builds
/// (broadcast.build_s.<build>) and layers (self_s.<layer>) the per-layer
/// metrics cover. "bench" is the benchmark's own code between calls.
const std::vector<std::string>& WalkLabels();
const std::vector<std::string>& BuildLabels();
const std::vector<std::string>& LayerLabels();

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_

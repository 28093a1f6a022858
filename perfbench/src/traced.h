// The traced run: the workload re-driven through each layer's public
// functions, with a span around every call (trace.h), producing the
// per-layer metrics.
//
// The replication engine and RunReplication cannot be opened up from
// outside src/, so each replication is timed whole and then replayed out
// of line from the same seed: the request generator's stream, the scheme
// walks over that stream (one timing per access), and the arrival and
// completion schedule pushed through des::Simulation with no-op
// callbacks. The replay spans are subtracted from the replication span,
// which leaves the request loop's own time in `core`.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct TracedResult {
  /// Values of PerLayerMetrics(), by name.
  std::map<std::string, double> metrics;
  /// Self seconds per layer, and per span or component name (trace.h).
  std::map<std::string, double> self_by_layer;
  std::map<std::string, double> self_by_name;
  /// Requests replayed, and replay disagreements with the engine.
  std::int64_t attempted = 0;
  std::vector<std::string> problems;
  double wall_s = 0.0;
};

/// Runs the traced pass. `untraced` is a plain pass of the same workload
/// at the same --jobs: it supplies each cell's merged replication count
/// (so the traced run replays exactly the merged replications), the
/// engine's busy/idle accounting and trace.overhead_s.
TracedResult RunTracedPass(const Workload& workload, int jobs,
                           const PassResult& untraced, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_

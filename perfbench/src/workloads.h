// The benchmark's workloads and the untraced run of one workload pass.
//
// Every workload is an open loop in simulated time: requests arrive on an
// exponential schedule, independent of completions. A workload is a list
// of sweep cells (TestbedConfigs) run through the replication engine, or
// one fleet run; all inputs derive from the --seed argument.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/fleet_runner.h"
#include "core/json_report.h"
#include "core/metrics.h"
#include "core/report.h"
#include "core/testbed_config.h"

namespace perfbench {

/// kSmall shrinks every workload (records, rounds, clients) so unit tests
/// can run it in well under a second; the benchmark always runs kFull.
enum class Size { kFull, kSmall };

struct Cell {
  /// Unique within the workload, e.g. "signature/34000".
  std::string label;
  /// Label of the client walk the cell runs, as used in the schemes.*
  /// per-layer metrics ("one_m_sqrt", "dynamic_overlay", ...).
  std::string walk;
  /// Label of the program build, as used in broadcast.build_s.*.
  std::string build;
  airindex::TestbedConfig config;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  /// Fleet workloads run their single cell through FleetExperiment.
  bool fleet = false;
  airindex::FleetOptions fleet_options;
};

const std::vector<std::string>& WorkloadNames();

/// InvalidArgument for an unknown name.
airindex::Result<Workload> MakeWorkload(std::string_view name,
                                        std::uint64_t seed,
                                        Size size = Size::kFull);

/// Simulated outcome of one cell of one pass. Every field is a pure
/// function of the workload and seed, whatever --jobs is.
struct CellOutcome {
  std::string label;
  airindex::Status status;
  double access_mean = 0.0;
  double tuning_mean = 0.0;
  double access_half_width = 0.0;
  double tuning_half_width = 0.0;
  std::int64_t requests = 0;
  std::int64_t found = 0;
  std::int64_t anomalies = 0;
  std::int64_t mismatches = 0;
  int rounds = 0;
  bool converged = true;
  airindex::MetricsRegistry metrics;
};

/// One untraced pass over the whole workload, setup included.
struct PassResult {
  std::vector<CellOutcome> cells;
  airindex::RunTiming timing;
  double wall_s = 0.0;
  /// CPU seconds of every thread of the process during the pass.
  double cpu_s = 0.0;
};

PassResult RunPass(const Workload& workload, int jobs);

/// Cold set-up of every cell, as the engine performs it: each distinct
/// dataset generated once, then every cell's program built and flattened
/// (BroadcastServer::Create without a program cache). Runs on the calling
/// thread and returns that thread's CPU seconds.
airindex::Result<double> MeasureSetup(const Workload& workload);

/// The paper metrics and the output checks of one pass.
struct Evaluation {
  /// Mean over cells of each cell's mean access / tuning time, in
  /// simulated bytes.
  double access_bytes = 0.0;
  double tuning_bytes = 0.0;
  /// Largest |sim - model| / model over the cells with an analytical
  /// model; 0 when no cell has one.
  double model_rel_err = 0.0;
  /// One line per modelled cell: sim, model and relative error.
  std::vector<std::string> notes;
  /// Requests attempted, and those failed: outcome mismatches,
  /// anomalies, not-found requests at 100% availability, and every
  /// planned request of a cell whose run returned a non-OK Status.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Check failures that make the run incorrect: a model outside its
  /// tolerance, a non-OK cell, failed requests.
  std::vector<std::string> problems;
};

Evaluation Evaluate(const Workload& workload, const PassResult& pass);

/// Bench report of a pass, in the schema tools/bench_compare reads.
airindex::BenchReport ToReport(const Workload& workload,
                               const PassResult& pass);

/// Differences between two passes of the same workload: any simulated
/// value that is not bit-identical, plus every failure of the strict
/// counter comparison of tools/bench_compare_lib (counter drift and the
/// internal accounting identities of both reports). Empty when the passes
/// agree.
std::vector<std::string> ComparePasses(const Workload& workload,
                                       const PassResult& reference,
                                       const PassResult& candidate);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

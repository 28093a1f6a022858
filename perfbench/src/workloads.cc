#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "analytical/dynamic_model.h"
#include "analytical/models.h"
#include "core/broadcast_server.h"
#include "core/experiment.h"
#include "core/simulator.h"
#include "des/random.h"
#include "dynamic/dynamic_program.h"
#include "machine.h"
#include "tools/bench_compare_lib.h"

namespace perfbench {

using airindex::SchemeKind;
using airindex::TestbedConfig;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- workload definitions ------------------------------------------------

struct PaperScheme {
  SchemeKind kind;
  const char* label;
};

constexpr PaperScheme kPaperSchemes[] = {
    {SchemeKind::kFlat, "flat"},
    {SchemeKind::kOneM, "one_m"},
    {SchemeKind::kDistributed, "distributed"},
    {SchemeKind::kHashing, "hashing"},
    {SchemeKind::kSignature, "signature"},
};

/// Per-record-count config seed: every scheme of one record count shares
/// it, so the engine generates that dataset once and reuses it.
std::uint64_t CellSeed(std::uint64_t seed, int records) {
  return airindex::Mix64(seed ^ (0x9e3779b97f4a7c15ULL *
                                 static_cast<std::uint64_t>(records)));
}

/// Figure 4's testbed (paper Table 1): five schemes at 7000 and 34000
/// records, uniform keys, 100% availability, stateless clients, rounds of
/// 500 requests until the Student-t rule (0.99 / 0.01) is met.
Workload PaperFig4(std::uint64_t seed, Size size) {
  Workload workload;
  workload.name = "paper_fig4";
  const std::vector<int> records = size == Size::kFull
                                       ? std::vector<int>{7000, 34000}
                                       : std::vector<int>{400, 1200};
  for (const int n : records) {
    for (const PaperScheme& scheme : kPaperSchemes) {
      Cell cell;
      cell.label = std::string(scheme.label) + "/" + std::to_string(n);
      cell.walk = scheme.label;
      cell.build = scheme.label;
      cell.config.scheme = scheme.kind;
      cell.config.num_records = n;
      cell.config.seed = CellSeed(seed, n);
      if (size == Size::kSmall) {
        cell.config.requests_per_round = 100;
        cell.config.min_rounds = 4;
        cell.config.max_rounds = 8;
      }
      workload.cells.push_back(std::move(cell));
    }
  }
  return workload;
}

/// One hot cell per walk, many clients: a few hundred bytes between
/// arrivals and tens of thousands of requests per round keep ~10^4
/// completions pending, so the event queue and the request loop carry
/// the cost. A fixed replication count keeps the work per pass constant.
Workload BusyCell(std::uint64_t seed, Size size) {
  Workload workload;
  workload.name = "busy_cell";
  const int n = size == Size::kFull ? 34000 : 2000;
  const int rounds = size == Size::kFull ? 16 : 2;
  const int per_round = size == Size::kFull ? 20000 : 2000;
  for (const bool sqrt_disks : {false, true}) {
    Cell cell;
    cell.config.scheme = sqrt_disks ? SchemeKind::kOneM : SchemeKind::kHashing;
    cell.walk = sqrt_disks ? "one_m_sqrt" : "hashing";
    cell.build = cell.walk;
    cell.label = cell.walk + "/" + std::to_string(n);
    if (sqrt_disks) {
      cell.config.params.schedule.scheduler =
          airindex::SchedulerKind::kSquareRoot;
      cell.config.params.schedule.num_disks = 4;
    }
    cell.config.num_records = n;
    cell.config.zipf_theta = 0.9;
    cell.config.mean_request_interval_bytes = 400.0;
    cell.config.requests_per_round = per_round;
    cell.config.min_rounds = rounds;
    cell.config.max_rounds = rounds;
    cell.config.seed = CellSeed(seed, n);
    workload.cells.push_back(std::move(cell));
  }
  return workload;
}

/// fig_fleet's workload at population scale: (1,m) over 4000 records,
/// Zipf(0.9) keys, sessions of 4 queries with repeat probability 0.25, a
/// 64-record LRU cache and 8 queries per client.
Workload FleetPopulation(std::uint64_t seed, Size size) {
  Workload workload;
  workload.name = "fleet_population";
  workload.fleet = true;
  Cell cell;
  cell.walk = "one_m";
  cell.build = "one_m";
  cell.config.scheme = SchemeKind::kOneM;
  cell.config.num_records = size == Size::kFull ? 4000 : 1000;
  cell.config.zipf_theta = 0.9;
  cell.config.client.cache_capacity = 64;
  cell.config.client.session_length = 4;
  cell.config.client.repeat_probability = 0.25;
  // Arrivals spread over several broadcast cycles, so tune-in phases are
  // uniform (the assumption of the (1,m) closed form).
  cell.config.mean_request_interval_bytes = 10'000'000.0;
  cell.config.seed = CellSeed(seed, cell.config.num_records);
  cell.label = "one_m/" + std::to_string(cell.config.num_records);
  workload.fleet_options.fleet_size = size == Size::kFull ? 400'000 : 4000;
  workload.fleet_options.queries_per_client = 8;
  workload.cells.push_back(std::move(cell));
  return workload;
}

/// Writes beside reads: (1,m), which patches in place, and hashing, which
/// appends delta buckets, under 4 mutations per record per epoch with
/// Zipf(0.7) targets and a compaction every 4 epochs. Zipf(0.9) requests
/// go through a 64-record LRU session cache that validates against the
/// real MutationLog versions.
Workload DynamicChurn(std::uint64_t seed, Size size) {
  Workload workload;
  workload.name = "dynamic_churn";
  const int n = size == Size::kFull ? 2000 : 500;
  const int rounds = size == Size::kFull ? 24 : 2;
  for (const PaperScheme& scheme :
       {PaperScheme{SchemeKind::kOneM, "one_m"},
        PaperScheme{SchemeKind::kHashing, "hashing"}}) {
    Cell cell;
    cell.label = std::string(scheme.label) + "/" + std::to_string(n);
    cell.walk = "dynamic_overlay";
    cell.build = scheme.label;
    cell.config.scheme = scheme.kind;
    cell.config.num_records = n;
    cell.config.zipf_theta = 0.9;
    cell.config.client.cache_capacity = 64;
    cell.config.client.session_length = 4;
    cell.config.client.repeat_probability = 0.25;
    cell.config.client.update_rate = 4.0;
    cell.config.client.update_zipf = 0.7;
    cell.config.client.compact_every = 4;
    cell.config.min_rounds = rounds;
    cell.config.max_rounds = rounds;
    if (size == Size::kSmall) cell.config.requests_per_round = 100;
    cell.config.seed = CellSeed(seed, n);
    workload.cells.push_back(std::move(cell));
  }
  return workload;
}

// --- models --------------------------------------------------------------

/// A cell's simulated value next to its analytical model. `tolerance` is
/// the bound the repository's own tests hold the pair to: relative for
/// access times, absolute for the dynamic staleness probability.
struct ModelCheck {
  double sim = 0.0;
  double model = 0.0;
  double tolerance = 0.0;
  bool absolute = false;
  const char* what = "";
};

double Ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::optional<ModelCheck> ModelFor(const Workload& workload, const Cell& cell,
                                   const CellOutcome& outcome) {
  const TestbedConfig& config = cell.config;
  const int n = config.num_records;
  if (workload.fleet) {
    // A fresh hit moves no bytes, so the misses carry every access byte;
    // the (1,m) access time of a miss does not depend on key popularity
    // under a uniform tune-in phase. Tolerance: tests/fleet_test.cc.
    const std::int64_t misses = outcome.metrics.Get("fleet.cache_misses");
    const auto access = static_cast<double>(
        outcome.metrics.Get("fleet.access_bytes"));
    return ModelCheck{
        misses > 0 ? access / static_cast<double>(misses) : 0.0,
        airindex::OneMModelExact(
            n, config.geometry,
            airindex::OneMOptimalMExact(n, config.geometry))
            .access_time,
        0.05, false, "access of a cache miss"};
  }
  if (config.client.update_rate > 0.0) {
    // Dirty-read probability of the five-state chain, held to
    // tests/dynamic_test.cc's absolute tolerance. dynamic.queries counts
    // the queries that reach the overlay, i.e. the cache misses.
    if (outcome.rounds <= 0) return std::nullopt;
    airindex::DynamicModelParams params;
    params.universe_size = n;
    params.update_rate = config.client.update_rate;
    params.update_zipf = config.client.update_zipf;
    params.compact_every = config.client.compact_every;
    params.patchable = airindex::DynamicRuntime::PatchableScheme(config.scheme);
    params.workload_zipf = config.zipf_theta;
    params.data_availability = config.data_availability;
    params.epochs = static_cast<std::int64_t>(std::llround(
        static_cast<double>(outcome.metrics.Get("dynamic.cycles")) /
        static_cast<double>(outcome.rounds)));
    const airindex::DynamicModelResult model =
        airindex::EvaluateDynamicModel(params);
    return ModelCheck{Ratio(outcome.metrics.Get("dynamic.dirty_queries"),
                            outcome.metrics.Get("dynamic.queries")),
                      model.dirty_probability, 0.08, true,
                      "dirty read probability"};
  }
  // The closed forms assume uniform keys; under a skewed key stream a
  // few hot records' positions decide the mean.
  if (config.params.schedule.active() || config.zipf_theta > 0.0) {
    return std::nullopt;
  }
  // Access-time models of the paper schemes, at the tolerances of the
  // sim-vs-model property test (tests/property_test.cc).
  switch (config.scheme) {
    case SchemeKind::kFlat:
      return ModelCheck{outcome.access_mean,
                        airindex::FlatModel(n, config.geometry).access_time,
                        0.05, false, "access"};
    case SchemeKind::kOneM:
      return ModelCheck{
          outcome.access_mean,
          airindex::OneMModelExact(
              n, config.geometry,
              airindex::OneMOptimalMExact(n, config.geometry))
              .access_time,
          0.10, false, "access"};
    case SchemeKind::kDistributed:
      return ModelCheck{
          outcome.access_mean,
          airindex::DistributedModelExact(
              n, config.geometry,
              airindex::DistributedOptimalRExact(n, config.geometry))
              .access_time,
          0.10, false, "access"};
    case SchemeKind::kHashing:
      return ModelCheck{
          outcome.access_mean,
          airindex::HashingModel(
              n, n,
              static_cast<int>(airindex::ExpectedHashCollisions(n, n)),
              config.geometry)
              .access_time,
          0.10, false, "access"};
    case SchemeKind::kSignature:
      return ModelCheck{
          outcome.access_mean,
          airindex::SignatureModel(
              n, config.geometry,
              airindex::TheoreticalFalseDropRate(
                  config.geometry, config.params.signature_bits_per_attribute,
                  config.num_attributes))
              .access_time,
          0.05, false, "access"};
    default:
      return std::nullopt;
  }
}

CellOutcome FromSimulation(const Cell& cell,
                           const airindex::Result<airindex::SimulationResult>&
                               run) {
  CellOutcome outcome;
  outcome.label = cell.label;
  if (!run.ok()) {
    outcome.status = run.status();
    return outcome;
  }
  const airindex::SimulationResult& sim = run.value();
  outcome.access_mean = sim.access.mean();
  outcome.tuning_mean = sim.tuning.mean();
  outcome.access_half_width = sim.access_check.half_width;
  outcome.tuning_half_width = sim.tuning_check.half_width;
  outcome.requests = sim.requests;
  outcome.found = sim.found;
  outcome.anomalies = sim.anomalies;
  outcome.mismatches = sim.outcome_mismatches;
  outcome.rounds = sim.rounds;
  outcome.converged = sim.converged;
  outcome.metrics = sim.metrics;
  return outcome;
}

CellOutcome FromFleet(const Cell& cell,
                      const airindex::Result<airindex::FleetRunResult>& run) {
  CellOutcome outcome;
  outcome.label = cell.label;
  if (!run.ok()) {
    outcome.status = run.status();
    return outcome;
  }
  const airindex::FleetShardResult& totals = run.value().totals;
  outcome.access_mean = Ratio(totals.access_bytes, totals.queries);
  outcome.tuning_mean = Ratio(totals.tuning_bytes, totals.queries);
  outcome.requests = totals.queries;
  outcome.found = totals.found;
  outcome.rounds = 1;
  outcome.metrics = run.value().metrics;
  return outcome;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_fig4", "busy_cell", "fleet_population", "dynamic_churn"};
  return names;
}

airindex::Result<Workload> MakeWorkload(std::string_view name,
                                        std::uint64_t seed, Size size) {
  if (name == "paper_fig4") return PaperFig4(seed, size);
  if (name == "busy_cell") return BusyCell(seed, size);
  if (name == "fleet_population") return FleetPopulation(seed, size);
  if (name == "dynamic_churn") return DynamicChurn(seed, size);
  return airindex::Status::InvalidArgument("unknown workload '" +
                                           std::string(name) + "'");
}

PassResult RunPass(const Workload& workload, int jobs) {
  PassResult pass;
  const double cpu_start = ProcessCpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  if (workload.fleet) {
    airindex::FleetExperiment experiment({.jobs = jobs});
    for (const Cell& cell : workload.cells) {
      pass.cells.push_back(
          FromFleet(cell, experiment.Run(cell.config, workload.fleet_options)));
    }
    pass.timing = experiment.timing();
  } else {
    std::vector<TestbedConfig> configs;
    for (const Cell& cell : workload.cells) configs.push_back(cell.config);
    airindex::ParallelExperiment experiment({.jobs = jobs});
    const auto runs = experiment.RunSweep(configs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      pass.cells.push_back(FromSimulation(workload.cells[i], runs[i]));
    }
    pass.timing = experiment.timing();
  }
  // The engine's worker threads have exited here, so the process total
  // holds all of their time.
  pass.wall_s = SecondsSince(start);
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  return pass;
}

airindex::Result<double> MeasureSetup(const Workload& workload) {
  const double start = ThreadCpuSeconds();
  // Same dataset reuse rule as ParallelExperiment::RunSweep: cells with
  // equal record shape and seed share one generated dataset.
  std::map<std::pair<int, std::uint64_t>,
           std::shared_ptr<const airindex::Dataset>>
      datasets;
  for (const Cell& cell : workload.cells) {
    const TestbedConfig& config = cell.config;
    auto& dataset = datasets[{config.num_records, config.seed}];
    if (dataset == nullptr) {
      auto generated = airindex::BuildTestbedDataset(config);
      if (!generated.ok()) return generated.status();
      dataset = std::move(generated).value();
    }
    auto server = airindex::BroadcastServer::Create(
        config.scheme, dataset, config.geometry,
        airindex::ResolvedSchemeParams(config), config.multichannel);
    if (!server.ok()) return server.status();
  }
  return ThreadCpuSeconds() - start;
}

Evaluation Evaluate(const Workload& workload, const PassResult& pass) {
  Evaluation eval;
  int measured_cells = 0;
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const Cell& cell = workload.cells[i];
    const CellOutcome& outcome = pass.cells[i];
    const TestbedConfig& config = cell.config;
    if (!outcome.status.ok()) {
      const std::int64_t planned =
          workload.fleet
              ? workload.fleet_options.fleet_size *
                    workload.fleet_options.queries_per_client
              : static_cast<std::int64_t>(config.requests_per_round) *
                    config.min_rounds;
      eval.attempted += planned;
      eval.failed += planned;
      eval.problems.push_back(cell.label + ": " + outcome.status.ToString());
      continue;
    }
    eval.attempted += outcome.requests;
    std::int64_t failed = outcome.mismatches + outcome.anomalies;
    // Deleted records are legitimately not found under server updates;
    // the outcome-mismatch counter already checks those against liveness.
    if (config.data_availability >= 1.0 && config.client.update_rate <= 0.0) {
      failed += outcome.requests - outcome.found;
    }
    if (failed > 0) {
      eval.problems.push_back(cell.label + ": " + std::to_string(failed) +
                              " failed requests (" +
                              std::to_string(outcome.mismatches) +
                              " mismatches, " +
                              std::to_string(outcome.anomalies) +
                              " anomalies, " +
                              std::to_string(outcome.requests -
                                             outcome.found) +
                              " not found)");
    }
    eval.failed += failed;
    eval.access_bytes += outcome.access_mean;
    eval.tuning_bytes += outcome.tuning_mean;
    ++measured_cells;

    if (const std::optional<ModelCheck> check =
            ModelFor(workload, cell, outcome)) {
      const double gap = std::abs(check->sim - check->model);
      const double rel = check->model > 0.0 ? gap / check->model : gap;
      eval.model_rel_err = std::max(eval.model_rel_err, rel);
      eval.notes.push_back(cell.label + ": " + check->what + " sim " +
                           std::to_string(check->sim) + " model " +
                           std::to_string(check->model) + " rel err " +
                           std::to_string(rel));
      if ((check->absolute ? gap : rel) > check->tolerance) {
        eval.problems.push_back(
            cell.label + ": " + check->what + " sim " +
            std::to_string(check->sim) + " vs model " +
            std::to_string(check->model) + " outside tolerance " +
            std::to_string(check->tolerance) +
            (check->absolute ? " (absolute)" : " (relative)"));
      }
    }
  }
  if (measured_cells > 0) {
    eval.access_bytes /= measured_cells;
    eval.tuning_bytes /= measured_cells;
  }
  if (eval.attempted == 0) eval.attempted = 1;
  return eval;
}

airindex::BenchReport ToReport(const Workload& workload,
                               const PassResult& pass) {
  airindex::BenchReport report;
  report.bench = "perfbench/" + workload.name;
  for (const CellOutcome& outcome : pass.cells) {
    airindex::BenchPoint point;
    point.labels = {{"cell", outcome.label}};
    point.metrics.emplace_back(
        "access_bytes",
        airindex::BenchMetricValue{outcome.access_mean,
                                   outcome.access_half_width, false});
    point.metrics.emplace_back(
        "tuning_bytes",
        airindex::BenchMetricValue{outcome.tuning_mean,
                                   outcome.tuning_half_width, false});
    point.replications = outcome.rounds;
    point.requests = outcome.requests;
    point.converged = outcome.converged;
    report.counters.Merge(outcome.metrics);
    report.points.push_back(std::move(point));
  }
  report.timing = pass.timing;
  return report;
}

std::vector<std::string> ComparePasses(const Workload& workload,
                                       const PassResult& reference,
                                       const PassResult& candidate) {
  std::vector<std::string> diffs;
  if (reference.cells.size() != candidate.cells.size()) {
    diffs.push_back("cell count differs");
    return diffs;
  }
  for (std::size_t i = 0; i < reference.cells.size(); ++i) {
    const CellOutcome& a = reference.cells[i];
    const CellOutcome& b = candidate.cells[i];
    const auto differ = [&](const char* what) {
      diffs.push_back(a.label + ": " + what + " is not bit-identical");
    };
    if (a.status.ok() != b.status.ok()) differ("status");
    if (a.access_mean != b.access_mean) differ("access mean");
    if (a.tuning_mean != b.tuning_mean) differ("tuning mean");
    if (a.access_half_width != b.access_half_width) differ("access CI");
    if (a.tuning_half_width != b.tuning_half_width) differ("tuning CI");
    if (a.requests != b.requests) differ("request count");
    if (a.found != b.found) differ("found count");
    if (a.rounds != b.rounds) differ("round count");
  }
  airindex::CompareOptions options;
  options.rel_tol = 0.0;
  options.strict_counters = true;
  const airindex::CompareResult compared = airindex::CompareBenchReports(
      ToReport(workload, reference), ToReport(workload, candidate), options);
  for (const std::string& failure : compared.failures) {
    diffs.push_back("strict counters: " + failure);
  }
  return diffs;
}

}  // namespace perfbench

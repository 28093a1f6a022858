// End-to-end benchmark of the AirIndex testbed.
//
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--jobs N] [--trace-file PATH] [--commit ID]
//
// --trace 0 runs the workload untraced: one reference pass at --jobs 1,
// then timed passes (each preceded by a cold set-up measurement) until
// --seconds have passed, and prints the end-to-end metrics. --trace 1
// runs untraced passes for --seconds, then one traced pass, and prints
// the per-layer metrics. Either way the last stdout line is one JSON
// object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any output check failed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "machine.h"
#include "metrics.h"
#include "stats.h"
#include "trace.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Timed passes a run makes at least, whatever --seconds says, so every
/// median has more than one sample.
constexpr int kMinPasses = 3;

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Prints every metric of `specs` as a readable line, then the result
/// JSON as the last stdout line.
void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<MetricSpec>& specs,
                 const std::map<std::string, double>& values) {
  for (const MetricSpec& spec : specs) {
    std::cout << "metric " << spec.name << " = "
              << FormatNumber(values.at(spec.name)) << " " << spec.unit
              << "\n";
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + specs[i].name + "\": {\"value\": " +
            FormatNumber(values.at(specs[i].name)) + ", \"unit\": \"" +
            specs[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

void ReportProblems(const std::vector<std::string>& problems) {
  for (const std::string& problem : problems) {
    std::cerr << "CHECK FAILED: " << problem << "\n";
  }
}

std::int64_t Requests(const PassResult& pass) {
  std::int64_t requests = 0;
  for (const CellOutcome& cell : pass.cells) requests += cell.requests;
  return requests;
}

int RunEndToEnd(const Workload& workload, const Options& options) {
  // The simulated metrics must be bit-identical at --jobs 1 and at the
  // benchmark's own --jobs, and across every timed pass.
  const PassResult reference = RunPass(workload, 1);
  const Evaluation eval = Evaluate(workload, reference);
  std::vector<std::string> problems = eval.problems;
  for (const std::string& note : eval.notes) {
    std::cerr << "model " << note << "\n";
  }
  const std::int64_t requests = Requests(reference);

  std::vector<double> setups;
  std::vector<double> cpus;
  std::vector<double> rates;
  std::vector<double> walls;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (static_cast<int>(walls.size()) < kMinPasses ||
         elapsed() < options.seconds) {
    const airindex::Result<double> setup = MeasureSetup(workload);
    if (!setup.ok()) {
      problems.push_back("setup: " + setup.status().ToString());
      break;
    }
    const PassResult pass = RunPass(workload, options.jobs);
    const std::vector<std::string> diffs =
        ComparePasses(workload, reference, pass);
    if (!diffs.empty()) {
      for (const std::string& diff : diffs) {
        problems.push_back("--jobs " + std::to_string(options.jobs) +
                           " vs --jobs 1: " + diff);
      }
      break;
    }
    setups.push_back(setup.value());
    cpus.push_back(pass.cpu_s);
    rates.push_back(static_cast<double>(requests) /
                    std::max(pass.cpu_s - setup.value(), 1e-9));
    walls.push_back(pass.wall_s);
  }
  // Wall time includes the steal time of a shared host, so it is printed
  // for the reader but not reported as a metric.
  std::cerr << "timed passes: " << walls.size() << " in "
            << FormatNumber(elapsed()) << " s; median wall per pass "
            << FormatNumber(Median(walls)) << " s\n";

  const bool correct = problems.empty();
  ReportProblems(problems);
  const std::map<std::string, double> values = {
      {"setup_s", Median(setups)},
      {"cpu_s", Median(cpus)},
      {"requests_per_cpu_s", Median(rates)},
      {"peak_rss_mb", PeakRssMiB()},
      {"access_bytes", eval.access_bytes},
      {"tuning_bytes", eval.tuning_bytes},
      {"model_agreement", 1.0 - eval.model_rel_err},
      {"ok_ratio", 1.0 - static_cast<double>(eval.failed) /
                             static_cast<double>(eval.attempted)},
  };
  PrintResult(correct, eval.attempted, eval.failed, EndToEndMetrics(),
              values);
  return correct ? 0 : 1;
}

/// Prints `seconds` by key, largest first, with each one's share of the
/// total. Self times of parallel work add up across threads, so the total
/// can exceed the wall time.
void PrintShares(const std::string& title,
                 const std::map<std::string, double>& seconds, int limit) {
  std::vector<std::pair<double, std::string>> order;
  double total = 0.0;
  for (const auto& [key, value] : seconds) {
    order.emplace_back(value, key);
    total += value;
  }
  std::sort(order.rbegin(), order.rend());
  std::cerr << title << " (total " << FormatNumber(total) << " s):\n";
  for (int i = 0; i < limit && i < static_cast<int>(order.size()); ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-32s %10.4f s  %5.1f%%\n",
                  order[static_cast<std::size_t>(i)].second.c_str(),
                  order[static_cast<std::size_t>(i)].first,
                  total > 0.0 ? 100.0 * order[static_cast<std::size_t>(i)].first /
                                    total
                              : 0.0);
    std::cerr << line;
  }
}

int RunTraced(const Workload& workload, const Options& options) {
  // Untraced passes fill the measured window and give the wall time
  // trace.overhead_s compares against; the first pass of a process pays
  // page faults and allocator growth, so it is left out.
  RunPass(workload, options.jobs);
  PassResult untraced;
  std::vector<double> walls;
  const auto start = std::chrono::steady_clock::now();
  do {
    untraced = RunPass(workload, options.jobs);
    walls.push_back(untraced.wall_s);
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < options.seconds);
  const Evaluation eval = Evaluate(workload, untraced);
  std::vector<std::string> problems = eval.problems;

  Tracer tracer;
  TracedResult traced = RunTracedPass(workload, options.jobs, untraced,
                                      &tracer);
  problems.insert(problems.end(), traced.problems.begin(),
                  traced.problems.end());
  traced.metrics["trace.overhead_s"] = traced.wall_s - Median(walls);

  if (!options.trace_file.empty()) {
    if (airindex::Status s = tracer.WriteChromeJson(options.trace_file);
        !s.ok()) {
      problems.push_back("trace file: " + s.ToString());
    } else {
      std::cerr << "trace written to " << options.trace_file << "\n";
    }
  }

  std::cerr << "traced wall " << FormatNumber(traced.wall_s)
            << " s, untraced wall " << FormatNumber(Median(walls))
            << " s\n";
  PrintShares("self time by layer", traced.self_by_layer, 16);
  PrintShares("self time by span", traced.self_by_name, 10);

  const bool correct = problems.empty();
  ReportProblems(problems);
  PrintResult(correct, std::max<std::int64_t>(1, traced.attempted),
              eval.failed, PerLayerMetrics(), traced.metrics);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const airindex::Result<Options> parsed =
      ParseOptions(std::vector<std::string>(argv + 1, argv + argc), nproc);
  if (!parsed.ok()) {
    std::cerr << "perfbench: " << parsed.status().ToString() << "\n"
              << Usage() << "\n";
    return 2;
  }
  const Options& options = parsed.value();
  if (airindex::Status s = CheckMeasurableBuild(); !s.ok()) {
    std::cerr << "perfbench: " << s.ToString() << "\n";
    return 3;
  }
  RunRecord record = DescribeMachine();
  record.commit = options.commit;
  record.workload = options.workload;
  record.seed = options.seed;
  record.jobs = options.jobs;
  record.trace = options.trace;
  std::cout << FormatRecord(record) << std::endl;

  const airindex::Result<Workload> workload =
      MakeWorkload(options.workload, options.seed);
  if (!workload.ok()) {
    std::cerr << "perfbench: " << workload.status().ToString() << "\n";
    return 2;
  }
  return options.trace ? RunTraced(workload.value(), options)
                       : RunEndToEnd(workload.value(), options);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

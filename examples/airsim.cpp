// airsim — the adaptive testbed as a command-line tool (paper Section 3:
// the Simulator "reads and processes user input ... and determines which
// data access method to use according to the user input").
//
// Usage:
//   airsim --scheme distributed [options]
//
// Options (defaults = the paper's Table 1):
//   --scheme NAME           flat | one_m | distributed | hashing |
//                           signature | integrated | multilevel |
//                           disks | hybrid
//   --records N             number of broadcast records     [7000]
//   --record-bytes B        record (== bucket) size         [500]
//   --key-bytes B           key size                        [25]
//   --signature-bytes B     signature bucket size It        [16]
//   --availability P        P(requested key on air), 0..1   [1.0]
//   --zipf THETA            request skew (0 = uniform)      [0]
//   --error-rate P          bucket corruption probability   [0]
//   --m N                   (1,m): replication count (0 = optimal)
//   --r N                   distributed: replicated levels (-1 = optimal)
//   --group N               signature family group size     [16]
//   --rounds MIN MAX        round bounds                    [100 400]
//   --accuracy A            confidence accuracy target      [0.01]
//   --confidence C          confidence level                [0.99]
//   --seed S                RNG seed                        [42]
//   --data-file PATH        load records from a CSV instead of the
//                           synthetic dictionary (key,attr1,attr2,...)

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "core/experiment.h"
#include "core/report.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "data/file_source.h"

namespace airindex {
namespace {

bool ParseScheme(const std::string& name, SchemeKind* kind) {
  if (name == "flat") *kind = SchemeKind::kFlat;
  else if (name == "one_m") *kind = SchemeKind::kOneM;
  else if (name == "distributed") *kind = SchemeKind::kDistributed;
  else if (name == "hashing") *kind = SchemeKind::kHashing;
  else if (name == "signature") *kind = SchemeKind::kSignature;
  else if (name == "integrated") *kind = SchemeKind::kIntegratedSignature;
  else if (name == "multilevel") *kind = SchemeKind::kMultiLevelSignature;
  else if (name == "disks") *kind = SchemeKind::kBroadcastDisks;
  else if (name == "hybrid") *kind = SchemeKind::kHybrid;
  else return false;
  return true;
}

int Main(int argc, char** argv) {
  TestbedConfig config;
  config.scheme = SchemeKind::kDistributed;
  std::string data_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](double fallback) {
      return i + 1 < argc ? std::atof(argv[++i]) : fallback;
    };
    if (arg == "--scheme" && i + 1 < argc) {
      if (!ParseScheme(argv[++i], &config.scheme)) {
        std::cerr << "unknown scheme: " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--records") {
      config.num_records = static_cast<int>(next(7000));
    } else if (arg == "--record-bytes") {
      config.geometry.record_bytes = static_cast<Bytes>(next(500));
    } else if (arg == "--key-bytes") {
      config.geometry.key_bytes = static_cast<Bytes>(next(25));
    } else if (arg == "--signature-bytes") {
      config.geometry.signature_bytes = static_cast<Bytes>(next(16));
    } else if (arg == "--availability") {
      config.data_availability = next(1.0);
    } else if (arg == "--zipf") {
      config.zipf_theta = next(0.0);
    } else if (arg == "--error-rate") {
      config.error_model.bucket_error_rate = next(0.0);
    } else if (arg == "--m") {
      config.params.one_m_m = static_cast<int>(next(0));
    } else if (arg == "--r") {
      config.params.distributed_r = static_cast<int>(next(-1));
    } else if (arg == "--group") {
      config.params.signature_group_size = static_cast<int>(next(16));
    } else if (arg == "--rounds" && i + 2 < argc) {
      config.min_rounds = std::atoi(argv[++i]);
      config.max_rounds = std::atoi(argv[++i]);
    } else if (arg == "--accuracy") {
      config.confidence_accuracy = next(0.01);
    } else if (arg == "--confidence") {
      config.confidence_level = next(0.99);
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(next(42));
    } else if (arg == "--data-file" && i + 1 < argc) {
      data_file = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the header of examples/airsim.cpp for options\n";
      return 0;
    } else {
      std::cerr << "unknown or incomplete option: " << arg << "\n";
      return 2;
    }
  }

  if (!data_file.empty()) {
    Result<Dataset> loaded = LoadDatasetFromFile(data_file);
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    config.dataset =
        std::make_shared<const Dataset>(std::move(loaded).value());
    config.num_records = config.dataset->size();
    std::cout << "loaded " << config.num_records << " records from "
              << data_file << "\n";
  }

  std::cout << "airsim: " << SchemeKindToString(config.scheme) << ", "
            << config.num_records << " records x "
            << config.geometry.record_bytes << " B (key "
            << config.geometry.key_bytes << " B), availability "
            << config.data_availability << ", zipf " << config.zipf_theta
            << ", error rate " << config.error_model.bucket_error_rate
            << "\n\n";

  const Result<SimulationResult> run = RunTestbed(config);
  if (!run.ok()) {
    std::cerr << run.status().ToString() << "\n";
    return 1;
  }
  const SimulationResult& sim = run.value();

  ReportTable table({"metric", "mean", "p50", "p95", "p99", "max"});
  table.AddRow({"access (bytes)", FormatDouble(sim.access.mean(), 0),
                std::to_string(sim.access_histogram.p50()),
                std::to_string(sim.access_histogram.p95()),
                std::to_string(sim.access_histogram.p99()),
                std::to_string(sim.access_histogram.max())});
  table.AddRow({"tuning (bytes)", FormatDouble(sim.tuning.mean(), 0),
                std::to_string(sim.tuning_histogram.p50()),
                std::to_string(sim.tuning_histogram.p95()),
                std::to_string(sim.tuning_histogram.p99()),
                std::to_string(sim.tuning_histogram.max())});
  table.Print(std::cout);

  std::cout << "\nrequests: " << sim.requests << " over " << sim.rounds
            << " rounds; converged: " << (sim.converged ? "yes" : "no")
            << " (relative half-width: access "
            << FormatDouble(sim.access_check.relative_accuracy, 4)
            << ", tuning "
            << FormatDouble(sim.tuning_check.relative_accuracy, 4) << ")\n"
            << "found rate: " << FormatDouble(sim.found_rate(), 3)
            << "; false drops: " << sim.false_drops
            << "; anomalies: " << sim.anomalies << "\n"
            << "channel: " << sim.num_buckets << " buckets / "
            << sim.cycle_bytes << " bytes per cycle (" << sim.num_index_buckets
            << " index, " << sim.num_signature_buckets << " signature)\n";
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }

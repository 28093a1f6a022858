// Scheme advisor: the paper's Section 5.3 selection criteria as a tool.
// Describe your application (record/key sizes, expected availability,
// how much you weight power vs latency) and it measures every scheme on
// that workload and recommends one.
//
// Usage: scheme_advisor [--records N] [--record-bytes B] [--key-bytes B]
//                       [--availability 0..1] [--power-weight 0..1]
//
// power-weight 1.0 = battery is everything (tuning time only);
// power-weight 0.0 = latency is everything (access time only).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/simulator.h"
#include "core/testbed_config.h"

namespace airindex {
namespace {

int Main(int argc, char** argv) {
  int num_records = 5000;
  Bytes record_bytes = 500;
  Bytes key_bytes = 25;
  double availability = 1.0;
  double power_weight = 0.5;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--records") == 0) {
      num_records = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--record-bytes") == 0) {
      record_bytes = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--key-bytes") == 0) {
      key_bytes = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--availability") == 0) {
      availability = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--power-weight") == 0) {
      power_weight = std::atof(argv[i + 1]);
    }
  }
  power_weight = std::clamp(power_weight, 0.0, 1.0);

  BucketGeometry geometry;
  geometry.record_bytes = record_bytes;
  geometry.key_bytes = key_bytes;

  std::cout << "Scheme advisor\n"
            << "  records: " << num_records << " x " << record_bytes
            << " B (key " << key_bytes << " B, ratio "
            << FormatDouble(geometry.record_key_ratio(), 1) << ")\n"
            << "  availability: " << FormatDouble(availability, 2)
            << ", power weight: " << FormatDouble(power_weight, 2)
            << "\n\n";

  struct Outcome {
    SchemeKind kind;
    double access;
    double tuning;
  };
  std::vector<Outcome> outcomes;
  ReportTable table({"scheme", "access (bytes)", "tuning (bytes)"});
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
        SchemeKind::kHashing, SchemeKind::kSignature,
        SchemeKind::kIntegratedSignature,
        SchemeKind::kMultiLevelSignature, SchemeKind::kHybrid}) {
    TestbedConfig config;
    config.scheme = kind;
    config.geometry = geometry;
    config.num_records = num_records;
    config.data_availability = availability;
    config.min_rounds = 30;
    config.max_rounds = 120;
    const Result<SimulationResult> run = RunTestbed(config);
    if (!run.ok()) {
      std::cerr << SchemeKindToString(kind) << ": "
                << run.status().ToString() << "\n";
      return 1;
    }
    outcomes.push_back(
        {kind, run.value().access.mean(), run.value().tuning.mean()});
    table.AddRow({SchemeKindToString(kind),
                  FormatDouble(outcomes.back().access, 0),
                  FormatDouble(outcomes.back().tuning, 0)});
  }
  table.Print(std::cout);

  // Normalize both metrics to the field's best, then weight.
  double best_access = outcomes.front().access;
  double best_tuning = outcomes.front().tuning;
  for (const Outcome& o : outcomes) {
    best_access = std::min(best_access, o.access);
    best_tuning = std::min(best_tuning, o.tuning);
  }
  const Outcome* winner = &outcomes.front();
  double winner_score = 0.0;
  for (const Outcome& o : outcomes) {
    const double score = (1.0 - power_weight) * (o.access / best_access) +
                         power_weight * (o.tuning / best_tuning);
    if (winner == &outcomes.front() && &o == &outcomes.front()) {
      winner_score = score;
    }
    if (score < winner_score) {
      winner = &o;
      winner_score = score;
    }
  }
  std::cout << "\nrecommendation: " << SchemeKindToString(winner->kind)
            << "\n\npaper's rules of thumb (Section 5.3):\n"
            << "  - waiting time is everything  -> flat or signature\n"
            << "  - energy is everything        -> hashing\n"
            << "  - frequent search failures    -> (1,m) / distributed\n"
            << "  - large record/key ratio      -> (1,m) / distributed\n";
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }

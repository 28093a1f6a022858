// GIS scenario from the paper's introduction: "mobile clients could ask
// for geographical information to find a restaurant of their choice in
// the vicinity".
//
// A municipal server broadcasts a points-of-interest directory. Clients
// ask for POIs by identifier; many lookups miss (the user browses
// categories that may not exist in this cell), so data availability is
// well below 100%. The example measures all candidate schemes under that
// workload and applies the paper's Section 5.3 selection criteria.
//
// Run: ./build/examples/gis_poi_lookup

#include <iostream>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/simulator.h"
#include "core/testbed_config.h"

int main() {
  using namespace airindex;

  // The POI directory: 8000 entries. Each record holds a name, category,
  // coordinates and a blurb — about 400 bytes — keyed by a 16-byte POI id.
  constexpr int kPois = 8000;
  BucketGeometry geometry;
  geometry.record_bytes = 400;
  geometry.key_bytes = 16;

  // Roughly 40% of requested ids are actually on this cell's broadcast.
  constexpr double kAvailability = 0.40;

  std::cout << "GIS points-of-interest broadcast: " << kPois
            << " records of " << geometry.record_bytes
            << " B, availability " << 100 * kAvailability << "%\n\n";

  ReportTable table({"scheme", "access (bytes)", "tuning (bytes)",
                     "found rate", "cycle (bytes)"});
  struct Candidate {
    SchemeKind kind;
    double access;
    double tuning;
  };
  std::vector<Candidate> candidates;
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
        SchemeKind::kHashing, SchemeKind::kSignature}) {
    TestbedConfig config;
    config.scheme = kind;
    config.geometry = geometry;
    config.num_records = kPois;
    config.data_availability = kAvailability;
    config.min_rounds = 40;
    config.max_rounds = 150;
    const Result<SimulationResult> run = RunTestbed(config);
    if (!run.ok()) {
      std::cerr << run.status().ToString() << "\n";
      return 1;
    }
    const SimulationResult& sim = run.value();
    candidates.push_back({kind, sim.access.mean(), sim.tuning.mean()});
    table.AddRow({SchemeKindToString(kind),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(sim.tuning.mean(), 0),
                  FormatDouble(sim.found_rate(), 2),
                  std::to_string(sim.cycle_bytes)});
  }
  table.Print(std::cout);

  // Section 5.3 of the paper: "(1,m) indexing and distributed indexing
  // achieve good tuning time and access time under low data
  // availability. Therefore, they are a better choice in applications
  // that exhibit frequent search failures."
  const Candidate* best = &candidates[0];
  for (const Candidate& c : candidates) {
    // Weighted choice: in a battery-powered handheld browsing scenario,
    // tuning matters as much as waiting; score both on equal relative
    // footing against the field's best.
    const auto score = [&](const Candidate& x) {
      double best_access = candidates[0].access;
      double best_tuning = candidates[0].tuning;
      for (const Candidate& y : candidates) {
        best_access = std::min(best_access, y.access);
        best_tuning = std::min(best_tuning, y.tuning);
      }
      return x.access / best_access + x.tuning / best_tuning;
    };
    if (score(c) < score(*best)) best = &c;
  }
  std::cout << "\nrecommended for this workload: "
            << SchemeKindToString(best->kind)
            << " (the paper's criterion for frequent search failures "
               "favours the B+-tree schemes)\n";
  return 0;
}

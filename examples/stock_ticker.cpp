// Wireless stock-market delivery, the paper's second motivating example:
// "stock information from any stock exchange in the world could be
// broadcast on wireless channels".
//
// Quotes are small records (64 bytes) keyed by a short ticker symbol
// (8 bytes) — a record/key ratio of just 8, the regime where the paper's
// Figure 6 shows B+-tree indexing paying heavy index overhead. Every
// queried ticker exists (availability 100%). The example translates
// tuning time into battery terms to make the paper's power argument
// concrete.
//
// Run: ./build/examples/stock_ticker

#include <iostream>

#include "core/experiment.h"
#include "core/report.h"
#include "core/simulator.h"
#include "core/testbed_config.h"

int main() {
  using namespace airindex;

  constexpr int kTickers = 12000;
  BucketGeometry geometry;
  geometry.record_bytes = 64;  // symbol, price, bid/ask, volume
  geometry.key_bytes = 8;      // ticker symbol
  geometry.signature_bytes = 4;

  std::cout << "Stock ticker broadcast: " << kTickers
            << " quotes of " << geometry.record_bytes
            << " B, record/key ratio "
            << FormatDouble(geometry.record_key_ratio(), 1) << "\n\n";

  // Power model for the battery estimate: listening drains ~120 mW at
  // ~1 Mbit/s; dozing is ~1% of that. One lookup per 10 seconds.
  constexpr double kListenJoulesPerByte = 120e-3 / (1e6 / 8.0);
  constexpr double kLookupsPerHour = 360.0;
  constexpr double kBatteryJoules = 3.7 * 1000.0 * 3.6;  // 1000 mAh @ 3.7 V

  ReportTable table({"scheme", "access (bytes)", "tuning (bytes)",
                     "energy/lookup (mJ)", "battery life (h)"});
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
        SchemeKind::kHashing, SchemeKind::kSignature,
        SchemeKind::kMultiLevelSignature}) {
    TestbedConfig config;
    config.scheme = kind;
    config.geometry = geometry;
    config.num_records = kTickers;
    config.min_rounds = 40;
    config.max_rounds = 150;
    const Result<SimulationResult> run = RunTestbed(config);
    if (!run.ok()) {
      std::cerr << run.status().ToString() << "\n";
      return 1;
    }
    const SimulationResult& sim = run.value();
    const double joules_per_lookup =
        sim.tuning.mean() * kListenJoulesPerByte;
    const double hours =
        kBatteryJoules / (joules_per_lookup * kLookupsPerHour);
    table.AddRow({SchemeKindToString(kind),
                  FormatDouble(sim.access.mean(), 0),
                  FormatDouble(sim.tuning.mean(), 0),
                  FormatDouble(joules_per_lookup * 1e3, 2),
                  FormatDouble(hours, 0)});
  }
  table.Print(std::cout);

  std::cout << "\nAt this record/key ratio the paper's conclusion applies: "
               "hashing gives the best battery life, and the B+-tree "
               "schemes pay a visible index overhead in waiting time.\n";
  return 0;
}

// Micro-benchmarks (google-benchmark) for the building blocks: channel
// construction per scheme, client access walks, event-queue throughput,
// the RNG and the Zipf sampler. These measure *implementation* speed
// (wall clock), unlike the figure benches, which measure *simulated*
// bytes.
//
// Accepts google-benchmark's own flags plus --json PATH, which emits the
// shared bench-report schema with one walltime point per benchmark.

#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "client/fleet.h"
#include "core/simulator.h"
#include "data/dataset.h"
#include "des/event_queue.h"
#include "des/random.h"
#include "des/zipf.h"
#include "dynamic/dynamic_program.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> BenchDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 25;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

void BM_ChannelBuild(benchmark::State& state, SchemeKind kind) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  const BucketGeometry geometry;
  for (auto _ : state) {
    auto scheme = BuildScheme(kind, dataset, geometry);
    benchmark::DoNotOptimize(scheme);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Full program construction: build + flatten into an arena — the cold
/// path of the program cache. Compare against BM_ProgramRestore to see
/// what a warm cache saves per sweep cell.
void BM_ProgramBuild(benchmark::State& state, SchemeKind kind) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  const BucketGeometry geometry;
  for (auto _ : state) {
    auto scheme = BuildScheme(kind, dataset, geometry).value();
    auto arena = FlattenSchemeProgram(kind, *scheme, 1, 2);
    benchmark::DoNotOptimize(arena);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Flatten alone: the arena write of a prebuilt program (what
/// BM_ProgramBuild adds on top of BM_ChannelBuild).
void BM_Flatten(benchmark::State& state, SchemeKind kind) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  const BucketGeometry geometry;
  auto scheme = BuildScheme(kind, dataset, geometry).value();
  for (auto _ : state) {
    auto arena = FlattenSchemeProgram(kind, *scheme, 1, 2);
    benchmark::DoNotOptimize(arena);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The warm path: restore a ready-to-query scheme from an existing
/// arena (channel inflation + cheap deterministic aux rebuild).
void BM_ProgramRestore(benchmark::State& state, SchemeKind kind) {
  const auto dataset = BenchDataset(static_cast<int>(state.range(0)));
  const BucketGeometry geometry;
  auto scheme = BuildScheme(kind, dataset, geometry).value();
  auto arena = std::make_shared<const ProgramArena>(
      FlattenSchemeProgram(kind, *scheme, 1, 2).value());
  for (auto _ : state) {
    auto restored =
        RestoreSchemeFromArena(arena, dataset, geometry, SchemeParams());
    benchmark::DoNotOptimize(restored);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Access(benchmark::State& state, SchemeKind kind) {
  const int n = static_cast<int>(state.range(0));
  const auto dataset = BenchDataset(n);
  const BucketGeometry geometry;
  auto scheme = BuildScheme(kind, dataset, geometry).value();
  Rng rng(1);
  Bytes t = 0;
  for (auto _ : state) {
    const int record = static_cast<int>(
        rng.NextBounded(static_cast<std::uint64_t>(n)));
    t += 12345;
    benchmark::DoNotOptimize(scheme->Access(dataset->record(record).key, t));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EventQueue(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    int sink = 0;
    for (int i = 0; i < depth; ++i) {
      queue.Schedule((i * 2654435761u) % 1000000, [&sink] { ++sink; });
    }
    while (!queue.empty()) queue.RunNext();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}

/// End-to-end hot path: one full replication (requests_per_round requests
/// through the event queue, access walk, and accumulators) against a
/// pre-built channel. Items processed = requests, so google-benchmark's
/// items/s column reads directly as requests per second.
void BM_RunReplication(benchmark::State& state, SchemeKind kind) {
  TestbedConfig config;
  config.scheme = kind;
  config.num_records = static_cast<int>(state.range(0));
  config.requests_per_round = 200;
  config.seed = 7;
  const auto dataset = BuildTestbedDataset(config).value();
  const auto server =
      BroadcastServer::Create(kind, dataset, config.geometry, config.params)
          .value();
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunReplication(server, *dataset, config, ReplicationSeed(7, id++)));
  }
  state.SetItemsProcessed(state.iterations() * config.requests_per_round);
}

/// Fleet hot path: one shard of the struct-of-arrays population engine
/// (client/fleet.h) advanced through all of its queries against a
/// pre-built (1,m) channel. Items processed = clients, so
/// google-benchmark's items/s column reads directly as clients per
/// second — the figure to hold against BM_RunReplication's requests/s
/// when sizing a fleet sweep.
void BM_FleetShard(benchmark::State& state) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 4000;
  config.seed = 7;
  const auto dataset = BuildTestbedDataset(config).value();
  const auto server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  FleetParams params;
  params.fleet_size = state.range(0);
  params.queries_per_client = 8;
  params.cache_capacity = 64;
  params.session_length = 4;
  params.repeat_probability = 0.25;
  params.zipf_theta = 0.9;
  params.seed = 7;
  const ZipfDistribution zipf(dataset->size(), params.zipf_theta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunFleetShard(server.scheme(), *dataset, params,
                                           0, params.fleet_size, &zipf));
  }
  state.SetItemsProcessed(state.iterations() * params.fleet_size);
}

/// One epoch of incremental maintenance per iteration: the runtime
/// applies rate * N mutations by patching the live (1,m) program in
/// place (free-list recycling, no rebuild). Items processed = mutations,
/// so google-benchmark's items/s column reads directly as patches per
/// second. Hold against BM_FullRebuild: the rebuild's per-epoch cost is
/// flat in the update rate while patching is linear, so the break-even
/// update rate is where the two items/s figures cross.
void BM_IncrementalPatch(benchmark::State& state, double update_zipf) {
  const int n = static_cast<int>(state.range(0));
  const auto dataset = BenchDataset(n);
  const BucketGeometry geometry;
  auto scheme = BuildScheme(SchemeKind::kOneM, dataset, geometry).value();
  const Bytes epoch = scheme->channel().cycle_bytes();
  DynamicRuntime runtime;
  DynamicRuntime::Params params;
  params.kind = SchemeKind::kOneM;
  params.universe = dataset;
  params.geometry = geometry;
  params.update_rate = 4.0;
  params.update_zipf = update_zipf;
  params.compact_every = 0;
  params.seed = 7;
  params.epoch_bytes = epoch;
  params.base_scheme = scheme.get();
  if (!runtime.Start(std::move(params)).ok()) {
    state.SkipWithError("runtime start failed");
    return;
  }
  Bytes now = 1;
  for (auto _ : state) {
    now += epoch;
    runtime.AdvanceTo(now);
    benchmark::DoNotOptimize(runtime.counters().mutations);
  }
  state.SetItemsProcessed(runtime.counters().mutations);
}

/// The alternative discipline: every epoch materializes the live dataset
/// and rebuilds the whole program from scratch (the compaction path:
/// materialize, build, flatten, tear down the previous program).
/// Items processed = mutations absorbed, as in BM_IncrementalPatch.
void BM_FullRebuild(benchmark::State& state, SchemeKind kind) {
  const int n = static_cast<int>(state.range(0));
  const auto dataset = BenchDataset(n);
  const BucketGeometry geometry;
  auto scheme = BuildScheme(kind, dataset, geometry).value();
  const Bytes epoch = scheme->channel().cycle_bytes();
  DynamicRuntime runtime;
  DynamicRuntime::Params params;
  params.kind = kind;
  params.universe = dataset;
  params.geometry = geometry;
  params.update_rate = 4.0;
  params.compact_every = 0;  // compaction forced below, every epoch
  params.seed = 7;
  params.epoch_bytes = epoch;
  params.base_scheme = scheme.get();
  if (!runtime.Start(std::move(params)).ok()) {
    state.SkipWithError("runtime start failed");
    return;
  }
  Bytes now = 1;
  for (auto _ : state) {
    now += epoch;
    runtime.AdvanceTo(now);
    if (!runtime.ForceCompact()) {
      state.SkipWithError("compaction failed");
      return;
    }
  }
  state.SetItemsProcessed(runtime.counters().mutations);
}

/// One Zipf rank draw (des/zipf.h) — the sampler behind every skewed
/// request key, fleet draw and mutation target.
void BM_ZipfSample(benchmark::State& state, double theta) {
  const ZipfDistribution zipf(static_cast<int>(state.range(0)), theta);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RngUint64(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextUint64());
  }
}

void BM_RngExponential(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextExponential(500.0));
  }
}

BENCHMARK_CAPTURE(BM_ChannelBuild, flat, SchemeKind::kFlat)->Arg(34000);
BENCHMARK_CAPTURE(BM_ChannelBuild, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_ChannelBuild, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ChannelBuild, hashing, SchemeKind::kHashing)->Arg(34000);
BENCHMARK_CAPTURE(BM_ChannelBuild, signature, SchemeKind::kSignature)
    ->Arg(34000);

BENCHMARK_CAPTURE(BM_ProgramBuild, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramBuild, signature, SchemeKind::kSignature)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_Flatten, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_Flatten, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_Flatten, signature, SchemeKind::kSignature)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramRestore, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramRestore, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_ProgramRestore, signature, SchemeKind::kSignature)
    ->Arg(34000);

BENCHMARK_CAPTURE(BM_Access, flat, SchemeKind::kFlat)->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, one_m, SchemeKind::kOneM)->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, distributed, SchemeKind::kDistributed)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, hashing, SchemeKind::kHashing)->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, broadcast_disks, SchemeKind::kBroadcastDisks)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_Access, signature, SchemeKind::kSignature)
    ->Arg(7000)
    ->Arg(34000);

BENCHMARK_CAPTURE(BM_RunReplication, flat, SchemeKind::kFlat)->Arg(7000);
BENCHMARK_CAPTURE(BM_RunReplication, distributed, SchemeKind::kDistributed)
    ->Arg(7000);
BENCHMARK_CAPTURE(BM_RunReplication, signature, SchemeKind::kSignature)
    ->Arg(7000);

BENCHMARK(BM_FleetShard)->Arg(1000)->Arg(10000);

BENCHMARK_CAPTURE(BM_IncrementalPatch, uniform, 0.0)->Arg(34000);
// dynamic_churn's mutation stream: Zipf(0.7) targets over 2000 records.
BENCHMARK_CAPTURE(BM_IncrementalPatch, zipf, 0.7)->Arg(2000);
// The dynamic_churn cells (2000 records), plus paper scale for (1,m).
BENCHMARK_CAPTURE(BM_FullRebuild, one_m, SchemeKind::kOneM)
    ->Arg(2000)
    ->Arg(34000);
BENCHMARK_CAPTURE(BM_FullRebuild, hashing, SchemeKind::kHashing)->Arg(2000);

BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);
BENCHMARK_CAPTURE(BM_ZipfSample, theta_0_7, 0.7)->Arg(2000);
BENCHMARK_CAPTURE(BM_ZipfSample, theta_0_9, 0.9)->Arg(34000);
BENCHMARK(BM_RngUint64);
BENCHMARK(BM_RngExponential);

/// Console reporter that also captures each run's name and per-iteration
/// wall time, so --json can emit them in the shared report schema.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Run {
    std::string name;
    double real_ns_per_iter;
    std::int64_t iterations;
  };

  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<benchmark::BenchmarkReporter::Run>& runs)
      override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      runs_.push_back({run.benchmark_name(),
                       run.GetAdjustedRealTime(),
                       static_cast<std::int64_t>(run.iterations)});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

int Main(int argc, char** argv) {
  // Split off --json before handing the rest to google-benchmark (it
  // rejects flags it does not know).
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int passthrough_argc = static_cast<int>(passthrough.size());

  benchmark::Initialize(&passthrough_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(passthrough_argc,
                                             passthrough.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_path.empty()) return 0;
  BenchReport report;
  report.bench = "micro_benchmarks";
  for (const CapturingReporter::Run& run : reporter.runs()) {
    BenchPoint point;
    point.labels = {{"benchmark", run.name}};
    point.metrics = {{"real_ns_per_iter",
                      BenchMetricValue{run.real_ns_per_iter, 0.0, true}}};
    point.replications = 1;
    point.requests = run.iterations;
    report.points.push_back(std::move(point));
  }
  if (Status s = WriteJsonFile(json_path, BenchReportToJson(report));
      !s.ok()) {
    std::cerr << "json report failed: " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }

#include "traced.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>

#include "broadcast/arena.h"
#include "client/fleet.h"
#include "client/session_client.h"
#include "core/broadcast_server.h"
#include "core/program_cache.h"
#include "core/request_generator.h"
#include "core/simulator.h"
#include "core/thread_pool.h"
#include "des/random.h"
#include "des/simulation.h"
#include "des/zipf.h"
#include "dynamic/dynamic_program.h"
#include "metrics.h"
#include "stats.h"

namespace perfbench {

using airindex::Bytes;
using airindex::Dataset;
using airindex::TestbedConfig;

namespace {

/// Fleet clients whose request streams are replayed through the scheme
/// walk (the fleet engine walks inside its shard passes, out of reach).
constexpr std::int64_t kFleetWalkClients = 2000;

double NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Timing samples, sums and maxima of the traced pass. Each replication
/// task fills its own and merges it once.
struct Samples {
  std::map<std::string, std::vector<double>> timings;
  std::map<std::string, double> sums;
  std::map<std::string, double> maxima;
  airindex::MetricsRegistry counters;

  void Merge(Samples&& other) {
    for (auto& [name, values] : other.timings) {
      std::vector<double>& mine = timings[name];
      mine.insert(mine.end(), values.begin(), values.end());
    }
    for (const auto& [name, value] : other.sums) sums[name] += value;
    for (const auto& [name, value] : other.maxima) {
      maxima[name] = std::max(maxima[name], value);
    }
    counters.Merge(other.counters);
  }
};

class SharedSamples {
 public:
  void Merge(Samples&& samples) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.Merge(std::move(samples));
  }
  Samples& unlocked() { return samples_; }

 private:
  std::mutex mu_;
  Samples samples_;
};

/// One replication's request stream, drawn in RunReplication's order
/// (warmup queries, then inter-arrival and query per request).
struct Stream {
  std::vector<std::string_view> warm_keys;
  std::vector<std::string_view> keys;
  std::vector<Bytes> inter_arrival;
  std::vector<Bytes> arrival;
};

Stream DrawStream(const Dataset& dataset, const TestbedConfig& config,
                  std::uint64_t seed, const airindex::ZipfDistribution* zipf,
                  int count) {
  airindex::Rng master(seed);
  airindex::RequestGenerator generator(
      &dataset, config.data_availability, config.mean_request_interval_bytes,
      master.Split(), config.zipf_theta, zipf,
      airindex::SessionWorkload{config.client.session_length,
                                config.client.repeat_probability});
  Stream stream;
  for (int i = 0; i < config.client.warmup_queries; ++i) {
    const airindex::Query query = generator.NextQuery();
    if (query.on_air) stream.warm_keys.push_back(query.key);
  }
  const auto n = static_cast<std::size_t>(count);
  stream.keys.reserve(n);
  stream.inter_arrival.reserve(n);
  stream.arrival.reserve(n);
  Bytes now = 0;
  for (int i = 0; i < count; ++i) {
    const Bytes gap = generator.NextInterArrival();
    now += gap;
    stream.inter_arrival.push_back(gap);
    stream.arrival.push_back(now);
    stream.keys.push_back(generator.NextQuery().key);
  }
  return stream;
}

/// Per-access accounting of one walk label.
struct WalkCounts {
  std::int64_t accesses = 0;
  std::int64_t index_probes = 0;
  std::int64_t buckets = 0;
  double seconds = 0.0;

  void Add(const airindex::AccessResult& access, double nanos) {
    ++accesses;
    index_probes += access.index_probes;
    buckets += access.probes;
    seconds += nanos * 1e-9;
  }

  void MergeInto(const std::string& walk, Samples* samples) const {
    samples->sums["schemes." + walk + ".accesses"] +=
        static_cast<double>(accesses);
    samples->sums["schemes." + walk + ".index_probes"] +=
        static_cast<double>(index_probes);
    samples->sums["schemes." + walk + ".buckets"] +=
        static_cast<double>(buckets);
  }
};

/// Walks every request of `stream` through the server, one timing per
/// access; returns each request's access time for the des replay.
std::vector<Bytes> ReplayWalks(const airindex::BroadcastServer& server,
                               const Stream& stream, const std::string& walk,
                               Samples* samples, WalkCounts* counts) {
  std::vector<double>& nanos =
      samples->timings["schemes." + walk + ".access_ns"];
  std::vector<Bytes> access_times;
  access_times.reserve(stream.keys.size());
  for (std::size_t i = 0; i < stream.keys.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const airindex::AccessResult access =
        server.Listen(stream.keys[i], stream.arrival[i]);
    const Clock::time_point t1 = Clock::now();
    const double ns = NanosBetween(t0, t1);
    nanos.push_back(ns);
    counts->Add(access, ns);
    access_times.push_back(access.access_time);
  }
  return access_times;
}

/// Arrival and completion schedule of one replication, pushed through
/// des::Simulation with no-op callbacks in the request loop's pattern:
/// each arrival schedules its completion and then the next arrival.
struct DesReplay {
  airindex::Simulation simulation;
  const std::vector<Bytes>* inter_arrival = nullptr;
  const std::vector<Bytes>* access_times = nullptr;
  std::size_t next = 0;
  std::size_t peak_pending = 0;

  void ScheduleArrival() {
    simulation.ScheduleIn((*inter_arrival)[next], [this]() {
      const std::size_t k = next++;
      simulation.ScheduleIn((*access_times)[k], []() {});
      peak_pending = std::max(peak_pending, simulation.pending());
      if (next < inter_arrival->size()) ScheduleArrival();
    });
  }
};

void RunDesReplay(const Stream& stream, const std::vector<Bytes>& access_times,
                  Samples* samples) {
  if (stream.inter_arrival.empty()) return;
  DesReplay replay;
  replay.inter_arrival = &stream.inter_arrival;
  replay.access_times = &access_times;
  replay.ScheduleArrival();
  replay.simulation.Run();
  samples->sums["des.events"] +=
      static_cast<double>(replay.simulation.events_processed());
  samples->maxima["des.peak_pending"] =
      std::max(samples->maxima["des.peak_pending"],
               static_cast<double>(replay.peak_pending));
}

/// Miss path of the replayed session client: the dynamic overlay's walk,
/// timed per call.
class OverlayFetcher final : public airindex::RecordFetcher {
 public:
  OverlayFetcher(airindex::DynamicRuntime* runtime, std::vector<double>* nanos)
      : runtime_(runtime), nanos_(nanos) {}

  airindex::AccessResult Fetch(std::string_view key, Bytes tune_in) override {
    const Clock::time_point t0 = Clock::now();
    const airindex::AccessResult access = runtime_->Access(key, tune_in);
    const double ns = NanosBetween(t0, Clock::now());
    nanos_->push_back(ns);
    counts.Add(access, ns);
    return access;
  }

  WalkCounts counts;

 private:
  airindex::DynamicRuntime* runtime_;
  std::vector<double>* nanos_;
};

class OverlayVersions final : public airindex::DynamicVersionSource {
 public:
  explicit OverlayVersions(airindex::DynamicRuntime* runtime)
      : runtime_(runtime) {}

  std::int64_t Version(int record_index, Bytes now) override {
    return runtime_->VersionAt(record_index, now);
  }

 private:
  airindex::DynamicRuntime* runtime_;
};

/// Everything one cell's replications share.
struct CellContext {
  const Cell* cell = nullptr;
  std::shared_ptr<const Dataset> dataset;
  const airindex::BroadcastServer* server = nullptr;
  const airindex::ZipfDistribution* zipf = nullptr;
  int span = kNoSpan;
};

/// Replays one dynamic-dataset replication: a DynamicRuntime and a
/// session client started the way RunReplication starts them, the
/// mutation clock advanced to each arrival (a span per epoch boundary),
/// then the query served through the session cache. Returns the access
/// times for the des replay.
std::vector<Bytes> ReplaySession(const CellContext& context,
                                 const Stream& stream, std::uint64_t seed,
                                 int parent, std::int64_t replication,
                                 Tracer* tracer, Samples* samples,
                                 std::vector<std::string>* problems) {
  const TestbedConfig& config = context.cell->config;
  const airindex::BroadcastServer& server = *context.server;
  airindex::DynamicRuntime runtime;
  airindex::DynamicRuntime::Params params;
  params.kind = config.scheme;
  params.universe = context.dataset;
  params.geometry = config.geometry;
  params.scheme_params = airindex::ResolvedSchemeParams(config);
  params.update_rate = config.client.update_rate;
  params.update_zipf = config.client.update_zipf;
  params.compact_every = config.client.compact_every;
  params.seed = airindex::Mix64(seed ^ 0xdc2a5ee0ULL);
  params.epoch_bytes = server.channel().cycle_bytes();
  params.base_scheme = &server.scheme();
  if (airindex::Status s = runtime.Start(std::move(params)); !s.ok()) {
    problems->push_back(context.cell->label +
                        ": DynamicRuntime::Start: " + s.ToString());
    return {};
  }

  OverlayFetcher fetcher(&runtime,
                         &samples->timings["schemes.dynamic_overlay.access_ns"]);
  OverlayVersions versions(&runtime);
  airindex::SessionClientParams session_params;
  session_params.cache_capacity = config.client.cache_capacity;
  session_params.cache_policy = config.client.cache_policy;
  session_params.update_period = std::max<Bytes>(
      1, static_cast<Bytes>(std::llround(
             static_cast<double>(server.channel().cycle_bytes()) /
             config.client.update_rate)));
  session_params.update_seed = airindex::Mix64(config.seed ^ 0xc11e47caULL);
  session_params.validation_bytes = config.geometry.signature_bytes;
  session_params.versions = &versions;
  airindex::SessionClient session(context.dataset.get(), session_params, {},
                                  &fetcher);
  for (const std::string_view key : stream.warm_keys) {
    session.WarmInsert(key, 0);
  }

  std::vector<double>& epoch_ms = samples->timings["dynamic.epoch_ms"];
  std::vector<double>& compact_ms = samples->timings["dynamic.compact_ms"];
  std::vector<Bytes> access_times;
  access_times.reserve(stream.keys.size());
  for (std::size_t i = 0; i < stream.keys.size(); ++i) {
    const std::int64_t cycles = runtime.counters().cycles;
    const std::int64_t rebuilt = runtime.counters().rebuilt_cycles;
    const double start = tracer->Now();
    runtime.AdvanceTo(stream.arrival[i]);
    if (runtime.counters().cycles != cycles) {
      const double end = tracer->Now();
      const bool compacted = runtime.counters().rebuilt_cycles != rebuilt;
      Span span;
      span.layer = "dynamic";
      span.name = compacted ? "dynamic.compact" : "dynamic.epoch";
      span.start = start;
      span.end = end;
      span.parent = parent;
      span.replication = replication;
      tracer->Add(std::move(span));
      (compacted ? compact_ms : epoch_ms).push_back((end - start) * 1e3);
    }
    access_times.push_back(
        session.Access(stream.keys[i], stream.arrival[i]).access_time);
  }
  tracer->AddComponent(Component{"schemes.dynamic_overlay.walk", "schemes",
                                 parent, replication, fetcher.counts.seconds,
                                 fetcher.counts.accesses});
  fetcher.counts.MergeInto("dynamic_overlay", samples);
  samples->sums["client.replay_hits"] += static_cast<double>(session.hits());
  samples->sums["dynamic.replay_mutations"] +=
      static_cast<double>(runtime.counters().mutations);
  return access_times;
}

/// One replication: RunReplication timed whole, then its replays.
void TraceReplication(const CellContext& context, int id, Tracer* tracer,
                      SharedSamples* shared,
                      std::vector<std::string>* problems,
                      std::mutex* problems_mu) {
  const TestbedConfig& config = context.cell->config;
  const std::uint64_t seed =
      airindex::ReplicationSeed(config.seed, static_cast<std::uint64_t>(id));
  Samples samples;
  std::vector<std::string> local_problems;

  // The task span encloses the replication and its replays, so the cell
  // sees its whole interval covered by its children.
  const int task = tracer->Begin("bench", "replication", context.span, id);
  const int span = tracer->Begin("core", "core.replication", task, id);
  const airindex::ReplicationResult result = airindex::RunReplication(
      *context.server, *context.dataset, config, seed, context.zipf);
  samples.timings["core.replication_ms"].push_back(tracer->End(span) * 1e3);
  samples.counters.Merge(result.metrics);
  samples.sums["core.requests"] += static_cast<double>(result.requests);

  const int gen = tracer->Begin("core", "core.generate", span, id, true);
  const Stream stream = DrawStream(*context.dataset, config, seed,
                                   context.zipf, config.requests_per_round);
  samples.sums["core.gen_seconds"] += tracer->End(gen);

  std::vector<Bytes> access_times;
  if (config.client.update_rate > 0.0) {
    ScopedSpan replay(tracer, "client", "client.session_replay", span, id,
                      true);
    access_times = ReplaySession(context, stream, seed, replay.id(), id,
                                 tracer, &samples, &local_problems);
  } else {
    ScopedSpan walk(tracer, "schemes",
                    "schemes." + context.cell->walk + ".walk", span, id, true);
    WalkCounts counts;
    access_times = ReplayWalks(*context.server, stream, context.cell->walk,
                               &samples, &counts);
    counts.MergeInto(context.cell->walk, &samples);
    // The replay must have walked exactly the requests the engine served.
    if (counts.index_probes != result.metrics.Get("client.index_probes")) {
      local_problems.push_back(
          context.cell->label + " replication " + std::to_string(id) +
          ": replayed walks made " + std::to_string(counts.index_probes) +
          " index probes, RunReplication " +
          std::to_string(result.metrics.Get("client.index_probes")));
    }
  }
  const int des = tracer->Begin("des", "des.replay", span, id, true);
  RunDesReplay(stream, access_times, &samples);
  samples.sums["des.seconds"] += tracer->End(des);
  tracer->End(task);
  shared->Merge(std::move(samples));
  if (!local_problems.empty()) {
    std::lock_guard<std::mutex> lock(*problems_mu);
    problems->insert(problems->end(), local_problems.begin(),
                     local_problems.end());
  }
}

/// Program build, flatten and restore of one cell, each in its span.
airindex::Result<airindex::BroadcastServer> TraceBuild(
    const Cell& cell, const std::shared_ptr<const Dataset>& dataset,
    int parent, Tracer* tracer, Samples* samples) {
  const TestbedConfig& config = cell.config;
  const airindex::SchemeParams params = airindex::ResolvedSchemeParams(config);
  int span =
      tracer->Begin("broadcast", "broadcast.build." + cell.build, parent);
  auto server = airindex::BroadcastServer::Create(
      config.scheme, dataset, config.geometry, params, config.multichannel);
  const double build_s = tracer->End(span);
  if (!server.ok()) return server.status();
  samples->timings["broadcast.build_s"].push_back(build_s);
  samples->timings["broadcast.build_s." + cell.build].push_back(build_s);

  const std::uint64_t dataset_fp = airindex::DatasetFingerprint(*dataset);
  const std::uint64_t params_fp = airindex::ProgramParamsFingerprint(
      config.scheme, config.geometry, params);
  span = tracer->Begin("broadcast", "broadcast.flatten", parent);
  auto arena = airindex::FlattenSchemeProgram(
      config.scheme, server.value().scheme(), dataset_fp, params_fp);
  const double flatten_s = tracer->End(span);
  if (!arena.ok()) return arena.status();
  samples->timings["broadcast.flatten_s"].push_back(flatten_s);
  samples->sums["broadcast.arena_bytes"] +=
      static_cast<double>(arena.value().bytes().size());

  auto shared_arena =
      std::make_shared<const airindex::ProgramArena>(std::move(arena).value());
  span = tracer->Begin("broadcast", "broadcast.restore", parent);
  auto restored = airindex::RestoreSchemeFromArena(shared_arena, dataset,
                                                   config.geometry, params);
  const double restore_s = tracer->End(span);
  if (!restored.ok()) return restored.status();
  samples->timings["broadcast.restore_s"].push_back(restore_s);
  return server;
}

std::shared_ptr<const Dataset> TraceDataset(const TestbedConfig& config,
                                            int parent, Tracer* tracer,
                                            Samples* samples,
                                            std::vector<std::string>* problems) {
  const int span = tracer->Begin("data", "data.generate", parent);
  auto dataset = airindex::BuildTestbedDataset(config);
  const double seconds = tracer->End(span);
  if (!dataset.ok()) {
    problems->push_back("dataset: " + dataset.status().ToString());
    return nullptr;
  }
  samples->timings["data.generate_s"].push_back(seconds);
  return std::move(dataset).value();
}

std::optional<airindex::ZipfDistribution> TraceZipf(
    const TestbedConfig& config, int n, int parent, Tracer* tracer) {
  if (config.zipf_theta <= 0.0) return std::nullopt;
  ScopedSpan span(tracer, "des", "des.zipf_table", parent);
  return airindex::ZipfDistribution(n, config.zipf_theta);
}

void TraceReplicationCells(const Workload& workload, int jobs,
                           const PassResult& untraced, int root,
                           Tracer* tracer, SharedSamples* shared,
                           std::vector<std::string>* problems) {
  airindex::ThreadPool pool(jobs);
  std::mutex problems_mu;
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<const Dataset>>
      datasets;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    const Cell& cell = workload.cells[i];
    const TestbedConfig& config = cell.config;
    const int cell_span = tracer->Begin("bench", "cell " + cell.label, root);
    Samples samples;
    std::shared_ptr<const Dataset>& dataset =
        datasets[{config.num_records, config.seed}];
    if (dataset == nullptr) {
      dataset = TraceDataset(config, cell_span, tracer, &samples, problems);
    }
    if (dataset == nullptr) {
      tracer->End(cell_span);
      continue;
    }
    auto server = TraceBuild(cell, dataset, cell_span, tracer, &samples);
    shared->Merge(std::move(samples));
    if (!server.ok()) {
      problems->push_back(cell.label + ": " + server.status().ToString());
      tracer->End(cell_span);
      continue;
    }
    const std::optional<airindex::ZipfDistribution> zipf =
        TraceZipf(config, dataset->size(), cell_span, tracer);

    CellContext context;
    context.cell = &cell;
    context.dataset = dataset;
    context.server = &server.value();
    context.zipf = zipf ? &*zipf : nullptr;
    context.span = cell_span;
    for (int id = 0; id < untraced.cells[i].rounds; ++id) {
      pool.Submit([&context, id, tracer, shared, problems, &problems_mu]() {
        TraceReplication(context, id, tracer, shared, problems, &problems_mu);
      });
    }
    pool.Wait();
    tracer->End(cell_span);
  }
}

void TraceFleet(const Workload& workload, int jobs, const PassResult& untraced,
                int root, Tracer* tracer, SharedSamples* shared,
                std::vector<std::string>* problems) {
  const Cell& cell = workload.cells.front();
  const TestbedConfig& config = cell.config;
  const airindex::FleetOptions& options = workload.fleet_options;
  const int cell_span = tracer->Begin("bench", "cell " + cell.label, root);
  Samples samples;
  const std::shared_ptr<const Dataset> dataset =
      TraceDataset(config, cell_span, tracer, &samples, problems);
  if (dataset == nullptr) {
    tracer->End(cell_span);
    return;
  }
  auto server = TraceBuild(cell, dataset, cell_span, tracer, &samples);
  if (!server.ok()) {
    problems->push_back(cell.label + ": " + server.status().ToString());
    tracer->End(cell_span);
    return;
  }
  const std::optional<airindex::ZipfDistribution> zipf =
      TraceZipf(config, dataset->size(), cell_span, tracer);

  // FleetExperiment::Run's mapping of the config onto the engine.
  airindex::FleetParams params;
  params.fleet_size = options.fleet_size;
  params.queries_per_client = options.queries_per_client;
  params.cache_capacity = config.client.cache_capacity;
  params.session_length = config.client.session_length;
  params.repeat_probability = config.client.repeat_probability;
  params.data_availability = config.data_availability;
  params.mean_request_interval_bytes = config.mean_request_interval_bytes;
  params.zipf_theta = config.zipf_theta;
  params.seed = config.seed;
  const int shards = static_cast<int>(
      std::min<std::int64_t>(options.shards, options.fleet_size));
  const std::int64_t base = options.fleet_size / shards;
  const std::int64_t extra = options.fleet_size % shards;
  const auto shard_begin = [&](int k) {
    return static_cast<std::int64_t>(k) * base +
           std::min<std::int64_t>(k, extra);
  };

  std::vector<airindex::FleetShardResult> results(
      static_cast<std::size_t>(shards));
  std::vector<double> shard_ms(static_cast<std::size_t>(shards), 0.0);
  {
    airindex::ThreadPool pool(jobs);
    for (int k = 0; k < shards; ++k) {
      pool.Submit([&, k]() {
        const int span =
            tracer->Begin("client", "client.fleet_shard", cell_span, k);
        results[static_cast<std::size_t>(k)] = airindex::RunFleetShard(
            server.value().scheme(), *dataset, params, shard_begin(k),
            shard_begin(k + 1), zipf ? &*zipf : nullptr);
        shard_ms[static_cast<std::size_t>(k)] = tracer->End(span) * 1e3;
      });
    }
    pool.Wait();
  }
  airindex::FleetShardResult totals;
  {
    ScopedSpan merge(tracer, "core", "core.fleet_merge", cell_span);
    for (const airindex::FleetShardResult& shard : results) {
      totals.Merge(shard);
    }
  }
  const airindex::MetricsRegistry& engine = untraced.cells.front().metrics;
  if (totals.queries != engine.Get("fleet.queries") ||
      totals.access_bytes != engine.Get("fleet.access_bytes") ||
      totals.cache_hits != engine.Get("fleet.cache_hits")) {
    problems->push_back(cell.label +
                        ": shard-by-shard replay disagrees with "
                        "FleetExperiment (queries, access bytes or hits)");
  }
  samples.timings["client.fleet_shard_ms"] = shard_ms;
  double shard_seconds = 0.0;
  for (const double ms : shard_ms) shard_seconds += ms * 1e-3;
  samples.sums["client.fleet_shard_seconds"] += shard_seconds;
  samples.sums["client.fleet_clients"] += static_cast<double>(totals.clients);
  samples.sums["client.fleet_wakeups"] +=
      static_cast<double>(totals.wake_events);
  samples.sums["client.fleet_queries"] += static_cast<double>(totals.queries);
  samples.sums["client.fleet_hits"] += static_cast<double>(totals.cache_hits);
  samples.sums["core.requests"] += static_cast<double>(totals.queries);

  // The shard passes walk the scheme internally; a sample of client
  // streams replayed through Listen gives the walk's own timings.
  {
    ScopedSpan walk(tracer, "schemes", "schemes." + cell.walk + ".walk",
                    cell_span);
    WalkCounts counts;
    const std::int64_t clients =
        std::min<std::int64_t>(kFleetWalkClients, options.fleet_size);
    for (std::int64_t client = 0; client < clients; ++client) {
      const Stream stream = DrawStream(
          *dataset, config,
          airindex::ReplicationSeed(config.seed,
                                    static_cast<std::uint64_t>(client)),
          zipf ? &*zipf : nullptr, options.queries_per_client);
      ReplayWalks(server.value(), stream, cell.walk, &samples, &counts);
    }
    counts.MergeInto(cell.walk, &samples);
  }
  shared->Merge(std::move(samples));
  tracer->End(cell_span);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TracedResult RunTracedPass(const Workload& workload, int jobs,
                           const PassResult& untraced, Tracer* tracer) {
  TracedResult out;
  SharedSamples shared;
  const int root = tracer->Begin("bench", "workload " + workload.name,
                                 kNoSpan);
  if (workload.fleet) {
    TraceFleet(workload, jobs, untraced, root, tracer, &shared,
               &out.problems);
  } else {
    TraceReplicationCells(workload, jobs, untraced, root, tracer, &shared,
                          &out.problems);
  }
  const int models = tracer->Begin("analytical", "analytical.models", root);
  Evaluate(workload, untraced);
  const double eval_s = tracer->End(models);
  out.wall_s = tracer->End(root);

  Samples& s = shared.unlocked();
  std::map<std::string, double>& m = out.metrics;
  for (const MetricSpec& spec : PerLayerMetrics()) m[spec.name] = 0.0;
  const auto summarize = [&](const std::string& timing,
                             const std::string& prefix, bool tail) {
    const TailSummary summary = Summarize(s.timings[timing]);
    m[prefix + "_p50"] = summary.median;
    if (tail) m[prefix + "_ptail"] = summary.tail;
    return summary.count;
  };

  m["data.generate_n"] =
      static_cast<double>(summarize("data.generate_s", "data.generate_s",
                                    false));
  m["broadcast.build_n"] = static_cast<double>(
      summarize("broadcast.build_s", "broadcast.build_s", false));
  for (const std::string& build : BuildLabels()) {
    m["broadcast.build_s." + build] =
        Median(s.timings["broadcast.build_s." + build]);
  }
  summarize("broadcast.flatten_s", "broadcast.flatten_s", false);
  summarize("broadcast.restore_s", "broadcast.restore_s", false);
  m["broadcast.arena_bytes"] = s.sums["broadcast.arena_bytes"];

  for (const std::string& walk : WalkLabels()) {
    const std::string prefix = "schemes." + walk;
    m[prefix + ".access_n"] = static_cast<double>(
        summarize(prefix + ".access_ns", prefix + ".access_ns", true));
    const double accesses = s.sums[prefix + ".accesses"];
    m[prefix + ".probes_per_access"] =
        Ratio(s.sums[prefix + ".index_probes"], accesses);
    m[prefix + ".buckets_per_access"] =
        Ratio(s.sums[prefix + ".buckets"], accesses);
  }

  m["des.events"] = s.sums["des.events"];
  m["des.event_ns"] = Ratio(s.sums["des.seconds"] * 1e9, s.sums["des.events"]);
  m["des.peak_pending"] = s.maxima["des.peak_pending"];

  const std::vector<Span> spans = tracer->spans();
  const std::vector<Component> components = tracer->components();
  const std::vector<double> self = SelfTimes(spans, components);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.self_by_name[spans[i].name] += self[i];
  }
  for (const Component& component : components) {
    out.self_by_name[component.name] += component.seconds;
  }
  const double core_loop_s = out.self_by_name["core.replication"];
  const double requests = s.sums["core.requests"];
  m["core.replication_n"] = static_cast<double>(
      summarize("core.replication_ms", "core.replication_ms", true));
  m["core.gen_ns_per_request"] = Ratio(s.sums["core.gen_seconds"] * 1e9,
                                       workload.fleet ? 0.0 : requests);
  m["core.self_ns_per_request"] =
      Ratio(core_loop_s * 1e9, workload.fleet ? 0.0 : requests);
  m["core.busy_s"] = untraced.timing.busy_seconds;
  m["core.idle_s"] = untraced.timing.idle_seconds;
  m["core.replications_run"] = untraced.timing.replications_run;
  m["core.useful_ratio"] = Ratio(untraced.timing.replications_merged,
                                 untraced.timing.replications_run);

  if (workload.fleet) {
    m["client.hit_ratio"] =
        Ratio(s.sums["client.fleet_hits"], s.sums["client.fleet_queries"]);
  } else {
    m["client.hit_ratio"] = Ratio(
        static_cast<double>(s.counters.Get("client.cache_hits")),
        static_cast<double>(s.counters.Get("client.session_queries")));
  }
  m["client.fleet_shard_n"] = static_cast<double>(
      summarize("client.fleet_shard_ms", "client.fleet_shard_ms", true));
  m["client.fleet_clients_per_s"] = Ratio(s.sums["client.fleet_clients"],
                                          s.sums["client.fleet_shard_seconds"]);
  m["client.fleet_wakeups"] = s.sums["client.fleet_wakeups"];

  m["dynamic.epoch_n"] = static_cast<double>(
      summarize("dynamic.epoch_ms", "dynamic.epoch_ms", true));
  m["dynamic.compact_n"] = static_cast<double>(
      summarize("dynamic.compact_ms", "dynamic.compact_ms", false));
  const airindex::MetricsRegistry& c = s.counters;
  m["dynamic.mutations"] = static_cast<double>(c.Get("dynamic.mutations"));
  m["dynamic.patched_cycles"] =
      static_cast<double>(c.Get("dynamic.patched_cycles"));
  m["dynamic.rebuilt_cycles"] =
      static_cast<double>(c.Get("dynamic.rebuilt_cycles"));
  m["dynamic.delta_read_ratio"] =
      Ratio(static_cast<double>(c.Get("dynamic.delta_reads")),
            static_cast<double>(c.Get("dynamic.queries")));
  m["dynamic.stale_read_ratio"] =
      Ratio(static_cast<double>(c.Get("dynamic.stale_reads")),
            static_cast<double>(c.Get("client.session_queries")));
  // The session replay must have seen the engine's mutation stream and
  // cache behaviour exactly.
  if (c.Has("dynamic.mutations") &&
      (s.sums["dynamic.replay_mutations"] !=
           static_cast<double>(c.Get("dynamic.mutations")) ||
       s.sums["client.replay_hits"] !=
           static_cast<double>(c.Get("client.cache_hits")))) {
    out.problems.push_back(
        "session replay disagrees with RunReplication: mutations " +
        std::to_string(s.sums["dynamic.replay_mutations"]) + " vs " +
        std::to_string(c.Get("dynamic.mutations")) + ", cache hits " +
        std::to_string(s.sums["client.replay_hits"]) + " vs " +
        std::to_string(c.Get("client.cache_hits")));
  }

  m["analytical.eval_s"] = eval_s;
  out.self_by_layer = SelfTimeByLayer(spans, components);
  for (const std::string& layer : LayerLabels()) {
    m["self_s." + layer] = out.self_by_layer[layer];
  }
  m["trace.wall_s"] = out.wall_s;
  out.attempted = static_cast<std::int64_t>(requests);
  return out;
}

}  // namespace perfbench

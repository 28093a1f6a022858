#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <utility>

#include "core/accuracy_controller.h"
#include "des/random.h"

namespace airindex {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Coordinator-side state of the streaming scheduler: workers park
/// completed replications here; the coordinator merges them in id order.
struct ReorderBuffer {
  std::mutex mu;
  std::condition_variable ready;
  /// Completed replications not yet merged, keyed by replication id.
  std::map<int, ReplicationResult> completed;
  /// High-water mark of `completed`.
  int peak = 0;
};

/// Folds one replication into a cell's merged result and its stopping
/// rule — the only ReplicationResult → SimulationResult merge.
void MergeReplication(const ReplicationResult& replication,
                      SimulationResult* merged,
                      AccuracyController* accuracy) {
  merged->access.Merge(replication.access);
  merged->tuning.Merge(replication.tuning);
  merged->probes.Merge(replication.probes);
  merged->access_histogram.Merge(replication.access_histogram);
  merged->tuning_histogram.Merge(replication.tuning_histogram);
  merged->found += replication.found;
  merged->abandoned += replication.abandoned;
  merged->false_drops += replication.false_drops;
  merged->anomalies += replication.anomalies;
  merged->outcome_mismatches += replication.outcome_mismatches;
  merged->metrics.Merge(replication.metrics);
  accuracy->AddRound(replication.round_access_mean,
                     replication.round_tuning_mean);
}

/// The raw merge state bench_merge replays for one shard-owned
/// replication.
ReplicationPayload PayloadOf(int id, const ReplicationResult& replication) {
  ReplicationPayload payload;
  payload.id = id;
  payload.access_count = replication.access.count();
  payload.access_mean = replication.access.mean();
  payload.access_m2 = replication.access.m2();
  payload.tuning_count = replication.tuning.count();
  payload.tuning_mean = replication.tuning.mean();
  payload.tuning_m2 = replication.tuning.m2();
  payload.round_access_mean = replication.round_access_mean;
  payload.round_tuning_mean = replication.round_tuning_mean;
  payload.metrics = replication.metrics;
  return payload;
}

}  // namespace

Result<TestbedProgram> BuildTestbedProgram(
    const TestbedConfig& config,
    std::unique_ptr<ProgramCache>* program_cache) {
  Result<std::shared_ptr<const Dataset>> dataset = BuildTestbedDataset(config);
  if (!dataset.ok()) return dataset.status();
  ProgramCache* cache = nullptr;
  if (!config.program_cache_dir.empty()) {
    if (*program_cache == nullptr ||
        (*program_cache)->dir() != config.program_cache_dir) {
      *program_cache = std::make_unique<ProgramCache>(config.program_cache_dir);
    }
    cache = program_cache->get();
  }
  Result<BroadcastServer> server =
      BroadcastServer::Create(config.scheme, dataset.value(), config.geometry,
                              ResolvedSchemeParams(config),
                              config.multichannel, cache);
  if (!server.ok()) return server.status();
  return TestbedProgram{std::move(dataset).value(), std::move(server).value()};
}

Result<SimulationResult> RunTestbed(const TestbedConfig& config) {
  return ParallelExperiment({.jobs = 1}).Run(config);
}

ParallelExperiment::ParallelExperiment(ParallelOptions options)
    : pool_(options.jobs),
      lookahead_(options.lookahead < 0 ? pool_.size() : options.lookahead),
      shard_(options.shard) {
  timing_.jobs = pool_.size();
  timing_.shard_index = shard_.index;
  timing_.shard_count = shard_.count;
}

std::shared_ptr<const ZipfDistribution> ParallelExperiment::ZipfFor(
    int n, double theta) {
  for (const auto& [key, table] : zipf_cache_) {
    if (key.first == n && key.second == theta) return table;
  }
  auto table = std::make_shared<const ZipfDistribution>(n, theta);
  zipf_cache_.emplace_back(std::make_pair(n, theta), table);
  return table;
}

Result<SimulationResult> ParallelExperiment::Run(const TestbedConfig& config) {
  return RunCell(config, 0, config.max_rounds, nullptr);
}

Result<SimulationResult> ParallelExperiment::RunCell(
    const TestbedConfig& config, int lo, int hi,
    std::vector<ReplicationPayload>* payloads) {
  const auto start = std::chrono::steady_clock::now();
  const double busy_before = pool_.busy_seconds();
  if (Status s = ValidateTestbedConfig(config); !s.ok()) return s;

  // Build the dataset and broadcast channel once; replications share them
  // read-only (the access protocols never mutate the channel).
  Result<TestbedProgram> program = BuildTestbedProgram(config, &program_cache_);
  if (!program.ok()) return program.status();
  const Dataset& dataset = *program.value().dataset;
  const BroadcastServer& server = program.value().server;

  // Hoist the Zipf table out of the per-replication path; alive until
  // pool_.Wait() below, so the raw pointer workers capture stays valid.
  std::shared_ptr<const ZipfDistribution> zipf_table;
  if (config.zipf_theta > 0.0) {
    zipf_table = ZipfFor(dataset.size(), config.zipf_theta);
  }
  const ZipfDistribution* zipf = zipf_table.get();

  // Streaming ordered merge: keep `jobs + lookahead` replications in
  // flight, merge strictly in replication-id order as results arrive, and
  // (unsharded) stop submitting the moment the rule fires on the merged
  // prefix. Replication `id` is a pure function of (config, id), and the
  // merged stream is the id-ordered prefix ending at the stopping
  // replication — so the statistics are bit-identical for every
  // jobs/lookahead value. A shard runs its whole slice instead: the
  // stopping rule belongs to the merged stream only bench_merge sees,
  // and absolute ids draw the streams a single process would.
  AccuracyController accuracy(config.confidence_level,
                              config.confidence_accuracy);
  SimulationResult merged;
  ReorderBuffer buffer;
  const int window = pool_.size() + lookahead_;
  int next_submit = lo;
  int next_merge = lo;
  bool stop = false;

  while (!stop && next_merge < hi) {
    // Refill the in-flight window (bounded by hi: replications past it
    // could never be merged).
    while (next_submit < hi && next_submit < next_merge + window) {
      const int id = next_submit++;
      const std::uint64_t seed =
          ReplicationSeed(config.seed, static_cast<std::uint64_t>(id));
      pool_.Submit([&server, &dataset, &config, &buffer, id, seed, zipf]() {
        ReplicationResult result =
            RunReplication(server, dataset, config, seed, zipf);
        std::lock_guard<std::mutex> lock(buffer.mu);
        buffer.completed.emplace(id, std::move(result));
        buffer.peak =
            std::max(buffer.peak, static_cast<int>(buffer.completed.size()));
        buffer.ready.notify_one();
      });
    }

    // Wait for the next id in merge order, then merge the contiguous
    // prefix that has arrived.
    std::vector<std::pair<int, ReplicationResult>> mergeable;
    {
      std::unique_lock<std::mutex> lock(buffer.mu);
      buffer.ready.wait(lock, [&]() {
        return buffer.completed.count(next_merge) != 0;
      });
      while (!buffer.completed.empty() &&
             buffer.completed.begin()->first == next_merge) {
        mergeable.emplace_back(next_merge,
                               std::move(buffer.completed.begin()->second));
        buffer.completed.erase(buffer.completed.begin());
        ++next_merge;
      }
    }

    for (const auto& [id, replication] : mergeable) {
      if (payloads != nullptr) payloads->push_back(PayloadOf(id, replication));
      MergeReplication(replication, &merged, &accuracy);
      if (payloads == nullptr &&
          accuracy.ShouldStop(config.min_rounds, config.max_rounds)) {
        // Cancellation point: later replications — in flight or already
        // parked in the buffer — are speculative waste from here on.
        stop = true;
        break;
      }
    }
  }

  // Drain in-flight speculative replications; they only touch the
  // reorder buffer, never the merged statistics.
  pool_.Wait();
  const int rounds = accuracy.rounds();
  timing_.replications_run += next_submit - lo;
  timing_.replications_discarded += next_submit - lo - rounds;
  timing_.reorder_buffer_peak =
      std::max(timing_.reorder_buffer_peak, buffer.peak);

  merged.requests = merged.access.count();
  merged.rounds = rounds;
  merged.converged = accuracy.Satisfied();
  merged.access_check = accuracy.access_check();
  merged.tuning_check = accuracy.tuning_check();
  FillChannelShape(server, &merged);

  const double wall = SecondsSince(start);
  timing_.replications_merged += rounds;
  timing_.wall_seconds += wall;
  timing_.busy_seconds = pool_.busy_seconds();
  timing_.idle_seconds +=
      std::max(0.0, wall * pool_.size() - (pool_.busy_seconds() -
                                           busy_before));
  return merged;
}

std::vector<Result<SimulationResult>> ParallelExperiment::RunSweep(
    const std::vector<TestbedConfig>& configs) {
  // One generated Dataset per distinct set of generation inputs: grid
  // cells that only vary the scheme (Figure 4's columns) share it. The
  // cache holds the exact object BuildTestbedDataset would produce, so
  // reuse is invisible to the statistics.
  struct DatasetKey {
    int num_records;
    Bytes key_bytes;
    int num_attributes;
    int attribute_width;
    std::uint64_t seed;
    bool operator==(const DatasetKey& other) const {
      return num_records == other.num_records &&
             key_bytes == other.key_bytes &&
             num_attributes == other.num_attributes &&
             attribute_width == other.attribute_width && seed == other.seed;
    }
  };
  std::vector<std::pair<DatasetKey, std::shared_ptr<const Dataset>>> cache;

  // Sharded sweeps split the flat replication-unit sequence across
  // processes (core/shard.h); each cell keeps its slice [lo, hi).
  std::vector<ShardRange> ranges;
  if (shard_.active()) {
    std::vector<int> caps;
    caps.reserve(configs.size());
    for (const TestbedConfig& config : configs) {
      caps.push_back(config.max_rounds);
    }
    ranges = PartitionSweep(caps, shard_);
    shard_cells_.clear();
    shard_cells_.reserve(configs.size());
  }

  std::vector<Result<SimulationResult>> results;
  results.reserve(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const TestbedConfig& config = configs[c];
    const auto cell_start = std::chrono::steady_clock::now();
    ShardCell shard_cell;
    if (shard_.active()) {
      shard_cell.min_rounds = config.min_rounds;
      shard_cell.max_rounds = config.max_rounds;
      shard_cell.confidence_level = config.confidence_level;
      shard_cell.confidence_accuracy = config.confidence_accuracy;
      if (ranges[c].empty()) {
        // Nothing of this cell is ours: skip the build entirely and emit
        // a placeholder so point order stays aligned across shards.
        results.push_back(SimulationResult{});
        shard_cells_.push_back(std::move(shard_cell));
        timing_.cell_wall_seconds.push_back(SecondsSince(cell_start));
        continue;
      }
    }
    TestbedConfig cell = config;
    if (cell.dataset == nullptr && ValidateTestbedConfig(cell).ok()) {
      const DatasetKey key{cell.num_records, cell.geometry.key_bytes,
                           cell.num_attributes, cell.attribute_width,
                           cell.seed};
      const auto hit =
          std::find_if(cache.begin(), cache.end(),
                       [&](const auto& entry) { return entry.first == key; });
      if (hit != cache.end()) {
        cell.dataset = hit->second;
      } else {
        Result<std::shared_ptr<const Dataset>> built =
            BuildTestbedDataset(cell);
        if (built.ok()) {
          cell.dataset = std::move(built).value();
          cache.emplace_back(key, cell.dataset);
        }
        // On failure fall through: Run(cell) reproduces the error.
      }
    }
    if (shard_.active()) {
      results.push_back(RunCell(cell, ranges[c].lo, ranges[c].hi,
                                &shard_cell.replications));
      shard_cells_.push_back(std::move(shard_cell));
    } else {
      results.push_back(Run(cell));
    }
    timing_.cell_wall_seconds.push_back(SecondsSince(cell_start));
  }
  return results;
}

}  // namespace airindex

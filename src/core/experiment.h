// Layer: 5 (core) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CORE_EXPERIMENT_H_
#define AIRINDEX_CORE_EXPERIMENT_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/broadcast_server.h"
#include "core/program_cache.h"
#include "core/report.h"
#include "core/shard.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "core/thread_pool.h"

namespace airindex {

/// Options of the parallel replication engine.
struct ParallelOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  /// jobs = 1 runs every replication serially on one worker and, by
  /// construction, produces exactly the same statistics as any other
  /// jobs value.
  int jobs = 0;
  /// Extra replications kept in flight beyond the pool width, so a
  /// worker finishing early always finds the next replication already
  /// queued; < 0 means "one extra pool width" (in-flight window =
  /// 2 * jobs). Lookahead only trades wall time against wasted
  /// speculative work — it never affects results.
  int lookahead = -1;
  /// Cross-process sweep shard (core/shard.h). The default ({0, 1}) is
  /// the ordinary single-process run. When shard.count > 1, RunSweep
  /// executes only this shard's replication slice of each cell — all of
  /// it, with no adaptive stop — and records per-replication payloads
  /// (shard_cells()) for bench_merge to replay. Run() ignores the shard:
  /// sharding is a sweep-level concept.
  ShardSpec shard = {};
};

/// What every engine builds once per cell before any request runs: the
/// resolved dataset and the broadcast server over it.
struct TestbedProgram {
  std::shared_ptr<const Dataset> dataset;
  BroadcastServer server;
};

/// Builds `config`'s dataset (BuildTestbedDataset) and broadcast server.
/// When config.program_cache_dir is set the server's program comes from
/// `*program_cache`, which is (re)created whenever the directory differs
/// from the one it holds. `config` must already be validated.
Result<TestbedProgram> BuildTestbedProgram(
    const TestbedConfig& config,
    std::unique_ptr<ProgramCache>* program_cache);

/// Multi-threaded replication engine.
///
/// The paper's adaptive testbed repeats rounds of `requests_per_round`
/// requests until the Student-t stopping rule converges. Rounds are
/// statistically independent, so this engine runs them as independent
/// *replications*, streamed through a thread pool:
///
///  - Replication `id` draws its RNG stream from
///    ReplicationSeed(config.seed, id) = seed ^ splitmix64(id)
///    (des/random.h), so its outcome depends only on (config, id) — never
///    on worker identity or scheduling.
///  - The coordinator keeps `jobs + lookahead` replications in flight at
///    all times (no wave barrier: a straggler never idles the rest of the
///    pool). Completed results land in a reorder buffer and are merged
///    strictly in replication-id order; each merged replication feeds the
///    AccuracyController, so the Student-t check runs on the ordered
///    stream exactly as it would serially.
///  - The stopping decision is the streaming cancellation point: once the
///    rule fires on the merged prefix, no further replications are
///    submitted, and in-flight speculative replications finish but are
///    discarded unmerged (at most the in-flight window of waste,
///    reported as `replications_discarded` in the timing summary).
///
/// Consequence: `Run` is bit-identical for every jobs/lookahead value,
/// and the adaptive stopping behaviour (which replication stops the run)
/// is preserved exactly.
class ParallelExperiment {
 public:
  explicit ParallelExperiment(ParallelOptions options = {});

  ParallelExperiment(const ParallelExperiment&) = delete;
  ParallelExperiment& operator=(const ParallelExperiment&) = delete;

  /// Runs one configuration to convergence (or max_rounds).
  Result<SimulationResult> Run(const TestbedConfig& config);

  /// Runs a grid of configurations, one result per config in input
  /// order — the one sweep entry point. Grid points run
  /// sequentially with their replications parallelised, so each point's
  /// statistics are independent of the grid around it (and of jobs).
  ///
  /// Cells that share the same generated-dataset inputs
  /// (num_records, key geometry, attribute shape, seed) reuse one
  /// Dataset instance instead of regenerating it — Figure 4's grid, for
  /// example, builds each record-count's dataset once instead of once
  /// per scheme. Reuse cannot change results: the cached dataset is
  /// bit-identical to the one each cell would generate itself.
  std::vector<Result<SimulationResult>> RunSweep(
      const std::vector<TestbedConfig>& configs);

  /// Timing accumulated over every Run/RunSweep call on this engine.
  const RunTiming& timing() const { return timing_; }

  /// Per-cell replication payloads captured by the most recent sharded
  /// RunSweep, one entry per sweep cell in sweep order (each with the
  /// cell's stopping parameters and this shard's owned replications).
  /// Empty unless options.shard.count > 1. The bench driver copies these
  /// into its partial report's shard section.
  const std::vector<ShardCell>& shard_cells() const { return shard_cells_; }

  /// Worker threads in use.
  int jobs() const { return pool_.size(); }

  /// The broadcast-program cache in use, or nullptr until a Run with a
  /// non-empty config.program_cache_dir created one. Exposed so bench
  /// mains can print its telemetry (docs/METRICS.md, program.* counters)
  /// — the counters never enter simulation metrics or bench reports.
  const ProgramCache* program_cache() const { return program_cache_.get(); }

 private:
  /// The one cell driver: builds the cell once, streams replications
  /// [lo, hi) (absolute ids) through the pool and merges them in id
  /// order. Without `payloads` this is Run: lo = 0, hi = max_rounds, and
  /// the adaptive stopping rule may end the cell early. With `payloads`
  /// it is one shard's slice of a sweep cell: every replication runs,
  /// each one's raw merge state is appended to `payloads`, and the
  /// returned result is only this shard's local view — bench_merge's
  /// replay reconstructs the real point.
  Result<SimulationResult> RunCell(const TestbedConfig& config, int lo,
                                   int hi,
                                   std::vector<ReplicationPayload>* payloads);

  /// One shared Zipf sampling table per distinct (ranks, theta):
  /// replications — and same-shape sweep cells, since the cache persists
  /// across Run calls — reuse it instead of recomputing the O(n)
  /// harmonic normalization per replication. Sharing cannot change
  /// results: the cached table is bit-identical to the one each
  /// replication would build itself.
  std::shared_ptr<const ZipfDistribution> ZipfFor(int n, double theta);

  ThreadPool pool_;
  int lookahead_;
  ShardSpec shard_;
  RunTiming timing_;
  std::vector<ShardCell> shard_cells_;
  /// Lives across Run/RunSweep calls so identical cells share one
  /// flattened program; (re)created when a config names a different
  /// snapshot directory.
  std::unique_ptr<ProgramCache> program_cache_;
  std::vector<std::pair<std::pair<int, double>,
                        std::shared_ptr<const ZipfDistribution>>>
      zipf_cache_;
};

/// The testbed's Simulator (paper Section 3): "acts as the coordinator of
/// the whole simulation process" — builds the data source and broadcast
/// server, runs rounds of requests, and stops when the accuracy
/// controller is satisfied. It is exactly
/// ParallelExperiment({.jobs = 1}).Run(config): one call for examples and
/// tests that do not need a long-lived engine.
Result<SimulationResult> RunTestbed(const TestbedConfig& config);

}  // namespace airindex

#endif  // AIRINDEX_CORE_EXPERIMENT_H_

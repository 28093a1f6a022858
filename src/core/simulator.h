// Layer: 5 (core) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_CORE_SIMULATOR_H_
#define AIRINDEX_CORE_SIMULATOR_H_

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "common/types.h"
#include "core/broadcast_server.h"
#include "core/metrics.h"
#include "core/testbed_config.h"
#include "des/zipf.h"
#include "stats/confidence.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"

namespace airindex {

/// Aggregate outcome of one simulation run.
struct SimulationResult {
  /// Per-request metrics in bytes.
  RunningStats access;
  RunningStats tuning;
  RunningStats probes;
  /// Full per-request distributions (tail percentiles).
  Histogram access_histogram;
  Histogram tuning_histogram;

  /// Run accounting.
  std::int64_t requests = 0;
  int rounds = 0;
  /// True when the accuracy controller's stopping rule was met (false
  /// means the max_rounds cap fired first).
  bool converged = false;
  /// Final confidence checks over round means.
  ConfidenceCheck access_check;
  ConfidenceCheck tuning_check;

  /// Outcome counters.
  std::int64_t found = 0;
  std::int64_t abandoned = 0;
  std::int64_t false_drops = 0;
  std::int64_t anomalies = 0;
  std::int64_t outcome_mismatches = 0;

  /// Telemetry counters (events processed, buckets broadcast, buckets
  /// listened vs bytes dozed, index probes, overflow-chain hops, error
  /// retries). Merged in replication-id order by the replication engine,
  /// so values are independent of --jobs.
  MetricsRegistry metrics;

  /// Channel shape, for reporting. On a multichannel run cycle_bytes is
  /// the longest cycle of the group and the bucket counts are summed over
  /// all channels.
  Bytes cycle_bytes = 0;
  std::int64_t num_buckets = 0;
  std::int64_t num_index_buckets = 0;
  std::int64_t num_signature_buckets = 0;
  std::int64_t num_data_buckets = 0;
  int num_channels = 1;

  /// found / requests.
  double found_rate() const {
    return requests > 0
               ? static_cast<double>(found) / static_cast<double>(requests)
               : 0.0;
  }
};

/// Checks a config without running anything: every engine (the
/// replication engine, RunTestbed, the fleet runner) rejects bad configs
/// through this one function.
Status ValidateTestbedConfig(const TestbedConfig& config);

/// The scheme params a run actually builds programs with: a copy of
/// config.params with an unresolved schedule theta (< 0, "inherit the
/// workload skew") replaced by config.zipf_theta. Every server
/// construction site (BuildTestbedProgram, the per-replication dynamic
/// overlay and schedule runtime) goes through this so planned and online
/// schedules see exactly the skew the request generator samples.
SchemeParams ResolvedSchemeParams(const TestbedConfig& config);

/// Resolves the dataset a run broadcasts: `config.dataset` when supplied,
/// otherwise the synthetic dataset generated from the config's record
/// shape and master seed. Every engine resolves its dataset through this,
/// so a given config always broadcasts identical data.
Result<std::shared_ptr<const Dataset>> BuildTestbedDataset(
    const TestbedConfig& config);

/// Fills `result`'s channel-shape block from the server's channel or
/// channel group. Shared by the replication and fleet engines so both
/// report the same shape for the same config.
void FillChannelShape(const BroadcastServer& server, SimulationResult* result);

/// Outcome of one independent replication (one round of
/// `requests_per_round` requests on a fresh simulation clock).
///
/// Everything here is a deterministic function of (server, dataset,
/// config, replication_seed) — per-worker accumulation with no shared
/// state, which is what makes replications safe to run concurrently and
/// their merge order-independent of thread scheduling.
struct ReplicationResult {
  RunningStats access;
  RunningStats tuning;
  RunningStats probes;
  Histogram access_histogram;
  Histogram tuning_histogram;
  std::int64_t requests = 0;
  std::int64_t found = 0;
  std::int64_t abandoned = 0;
  std::int64_t false_drops = 0;
  std::int64_t anomalies = 0;
  std::int64_t outcome_mismatches = 0;
  /// Per-replication telemetry counters; the coordinator merges these in
  /// replication-id order.
  MetricsRegistry metrics;
  /// Round means — the observations the Student-t stopping rule consumes.
  double round_access_mean = 0.0;
  double round_tuning_mean = 0.0;
};

/// Runs one replication against an already-built broadcast channel.
///
/// `replication_seed` should come from ReplicationSeed(master, id)
/// (des/random.h). Thread-safe for concurrent calls on the same server
/// and dataset: the access protocols are pure reads of the channel, and
/// all mutable state (RNG, event queue, accumulators — including the
/// session client's cache, when one is configured) is local.
///
/// `shared_zipf`, when non-null, must be a ZipfDistribution built for
/// (dataset.size(), config.zipf_theta); the replication samples it
/// instead of rebuilding the O(n) table. The replication engine hoists
/// one table per (n, theta) across replications and sweep cells; null
/// keeps the self-contained behaviour (a locally built, identical
/// table).
ReplicationResult RunReplication(const BroadcastServer& server,
                                 const Dataset& dataset,
                                 const TestbedConfig& config,
                                 std::uint64_t replication_seed,
                                 const ZipfDistribution* shared_zipf =
                                     nullptr);

}  // namespace airindex

#endif  // AIRINDEX_CORE_SIMULATOR_H_

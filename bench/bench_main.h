// Shared option parsing and structured reporting for the bench drivers.
//
// Every bench accepts the same base flags:
//   --quick        fewer grid points / rounds (CI-friendly)
//   --csv          emit CSV tables instead of aligned text
//   --jobs N       worker threads for the replication engine (0 = all
//                  cores; 1 = serial; at most kMaxBenchJobs). Statistics
//                  are bit-identical for every N; only the timing summary
//                  changes.
//   --records N    override the bench's record-count grid with the single
//                  count N (benches that sweep records honour it; others
//                  ignore it)
//   --json PATH    additionally write the machine-readable report
//                  (core/json_report.h schema) to PATH
//   --channels N   broadcast over N synchronized channels (default 1 =
//                  the paper's single-channel testbed; testbed benches
//                  honour it via ApplyMultiChannelOptions)
//   --switch-cost B  broadcast bytes a client loses per channel hop
//   --allocation S   multichannel allocation strategy: index-on-one,
//                  data-partitioned (default) or replicated-index
//   --zipf T       request-popularity skew Zipf(T) over record ranks
//                  (unset = each bench's own workload; testbed benches
//                  honour it via ApplyWorkloadOptions)
//   --cache-size C   client cache capacity in records (default 0 = the
//                  paper's stateless client; the session wrapper is
//                  bypassed entirely)
//   --cache-policy P eviction policy: lru (default), lfu or pix
//   --session-length K  queries per client session
//   --repeat-prob P  within-session probability of repeating the
//                  previous query (temporal locality)
//   --update-rate U  server-side mutations per record per broadcast
//                  cycle. 0 (default) freezes the dataset and bypasses
//                  the dynamic layer entirely; > 0 runs the MutationLog
//                  / incremental-maintenance engine (src/dynamic) and
//                  wires real record versions into cache validation
//   --update-zipf T  Zipf skew of mutation targets over record ranks
//                  (0 = uniform; only meaningful with --update-rate)
//   --compact-every K  rebuild the broadcast program from the mutated
//                  dataset every K cycles (0 = patch forever, never
//                  compact; only meaningful with --update-rate)
//   --cache-warmup N warmup queries before measurement (steady state)
//   --fleet-size N   population size for fleet-mode benches (fig_fleet):
//                  N clients share one broadcast cycle via the batched
//                  struct-of-arrays engine (client/fleet.h). 0 = the
//                  bench's own size grid; single-client benches ignore it
//   --shard I/N    run only shard I of N of the sweep (core/shard.h):
//                  the replication units of the whole grid are split
//                  deterministically across N processes, and the JSON
//                  report becomes a *partial* carrying a `shard` section
//                  for tools/bench_merge to combine. Sweep benches
//                  honour it; fig_fleet rejects it (the fleet engine has
//                  its own internal sharding)
//   --scheduler S  slot scheduler: flat (default, the paper's layouts),
//                  sqrt (square-root-rule broadcast disks over the
//                  workload skew) or online (sqrt start + per-run
//                  re-tiering from the observed request stream). Testbed
//                  benches honour it via ApplyWorkloadOptions
//   --disks D      broadcast disks (popularity tiers) for sqrt/online
//   --retier-requests N  online re-tiering epoch length, in observed
//                  on-air requests
//
// BenchReporter accumulates the report while the bench prints its usual
// tables, then writes the JSON file on Finish() when --json was given.
// Every report's config block also embeds the fully-resolved shared-flag
// set under `resolved.*` keys, so sharded partials and committed
// baselines are self-describing; result-neutral knobs (--json, --shard,
// --program-cache, --jobs) are excluded so the CI byte-identity gates
// keep holding across them. Readers tolerate reports without these keys
// (config is an open key/value list).

#ifndef AIRINDEX_BENCH_BENCH_MAIN_H_
#define AIRINDEX_BENCH_BENCH_MAIN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/json_report.h"
#include "core/program_cache.h"
#include "core/report.h"
#include "core/shard.h"
#include "core/simulator.h"

namespace airindex {

/// Largest --jobs value the parser accepts: each job is one OS thread of
/// the replication engine's pool.
inline constexpr int kMaxBenchJobs = 256;

/// Options common to every bench driver.
struct BenchOptions {
  bool quick = false;
  bool csv = false;
  int jobs = 0;
  /// 0 means "use the bench's own grid".
  int records = 0;
  /// Empty means "no JSON output".
  std::string json_path;
  /// Multichannel flags. The defaults describe the single-channel
  /// testbed, under which ApplyMultiChannelOptions is a no-op and the
  /// JSON report stays byte-identical with pre-multichannel baselines.
  MultiChannelParams multichannel;
  /// --zipf; < 0 means "not given" (keep the bench's own workload).
  double zipf_theta = -1.0;
  /// Stateful-client flags. The default (cache_capacity 0) keeps the
  /// stateless client, ApplyWorkloadOptions stays a no-op for them, and
  /// reports stay byte-identical with pre-client baselines.
  ClientSessionConfig client;
  /// --fleet-size; 0 means "use the fleet bench's own size grid".
  std::int64_t fleet_size = 0;
  /// --program-cache DIR: on-disk broadcast-program snapshot cache
  /// (core/program_cache.h). Empty disables caching. Never affects
  /// results or the JSON report — only setup wall time.
  std::string program_cache_dir;
  /// --shard I/N, already converted to the 0-based internal form. The
  /// default ({0, 1}) is the ordinary unsharded run.
  ShardSpec shard;
  /// --scheduler / --disks / --retier-requests. The default (kFlat)
  /// keeps every scheme's committed layout, ApplyWorkloadOptions stays a
  /// no-op for it, and reports stay byte-identical with pre-scheduler
  /// baselines.
  ScheduleParams schedule;
};

/// Parses the shared flags. Prints to stderr and exits with status 2 on
/// an unknown flag (naming it) or a malformed value (e.g. `--jobs`
/// without a number).
BenchOptions ParseBenchOptions(int argc, char** argv);

/// Copies the parsed multichannel flags into a testbed config. Testbed
/// benches call this per grid cell so --channels / --switch-cost /
/// --allocation apply uniformly.
void ApplyMultiChannelOptions(const BenchOptions& options,
                              TestbedConfig* config);

/// Copies the parsed workload flags (--zipf and the --cache-* /
/// --session-* / --update-rate family) into a testbed config. --zipf is
/// applied only when given, so benches with their own skew keep it by
/// default. Benches whose sweep axes are these very knobs (e.g.
/// fig_client_cache) skip this call.
void ApplyWorkloadOptions(const BenchOptions& options, TestbedConfig* config);

/// Prints one program-cache telemetry line to stderr (no-op on nullptr —
/// benches call it unconditionally with engine.program_cache()). Kept off
/// stdout and out of the JSON report so warm and cold cache runs stay
/// byte-identical; the counters are documented in docs/METRICS.md. On a
/// sharded run the line is prefixed with "[shard I/N]" so N processes
/// writing to one terminal (or one CI log) stay attributable.
void PrintProgramCacheSummary(const ProgramCache* cache,
                              const ShardSpec& shard = {});

/// Collects bench results into a BenchReport and writes it when --json
/// was requested.
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const BenchOptions& options);

  /// Records one config key/value pair (record counts, scheme list, ...).
  void AddConfig(const std::string& key, const std::string& value);

  /// Adds one grid point from a simulation run: access/tuning byte means
  /// with their Student-t confidence half-widths, plus the run's counters
  /// merged into the report totals. Returns the stored point so callers
  /// can attach extra metrics (valid until the next Add*).
  BenchPoint& AddSimulationPoint(
      std::vector<std::pair<std::string, std::string>> labels,
      const SimulationResult& sim);

  /// Adds a fully-specified point (derived scalars, walltime metrics).
  void AddPoint(BenchPoint point);

  /// Folds a run's registry into the report's counter totals — for
  /// benches whose points are not built by AddSimulationPoint (the fleet
  /// engine reports through core/fleet_runner.h, not SimulationResult).
  void MergeCounters(const MetricsRegistry& metrics);

  /// Marks this report as shard `spec` of a sharded sweep. No-op for the
  /// default ({0, 1}) spec, so benches call it unconditionally. A marked
  /// report gains a `shard` root object on Finish — bench_merge's input.
  void SetShard(const ShardSpec& spec);

  /// Records one sweep cell's shard payload (from
  /// ParallelExperiment::shard_cells()), in point order. No-op unless
  /// SetShard marked the report.
  void AttachShardCell(ShardCell cell);

  /// Declares that the last attached cell's point carries a derived
  /// counter-ratio metric, so bench_merge can recompute it. No-op unless
  /// SetShard marked the report.
  void AddDerivedMetric(const DerivedMetricSpec& spec);

  /// Writes the JSON report when --json was given; no-op otherwise.
  /// Returns the write status so the driver can fail loudly.
  Status Finish(const RunTiming& timing);

  /// True when --json was requested.
  bool enabled() const { return !json_path_.empty(); }

 private:
  BenchReport report_;
  ShardSection shard_;
  bool sharded_ = false;
  std::string json_path_;
};

}  // namespace airindex

#endif  // AIRINDEX_BENCH_BENCH_MAIN_H_

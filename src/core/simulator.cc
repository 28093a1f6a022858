#include "core/simulator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/schedule.h"
#include "client/session_client.h"
#include "core/broadcast_server.h"
#include "core/deadline.h"
#include "core/error_model.h"
#include "core/request_generator.h"
#include "core/result_handler.h"
#include "data/dataset.h"
#include "des/random.h"
#include "des/simulation.h"
#include "dynamic/dynamic_program.h"
#include "schemes/scheduled.h"

namespace airindex {

namespace {

/// Per-replication scheduling state, owned by the access pipeline. For
/// kFlat configs nothing activates and scheme() forwards the server's
/// scheme, so those paths stay byte-identical with the committed
/// baselines. For kOnline the runtime owns the live re-tiered program:
/// every on-air request feeds the retierer, and a full epoch swaps a
/// rebuilt program in for the *next* request — safe at any phase because
/// the client walks are closed-form over the current channel, never
/// spanning a swap.
struct ScheduleRuntime {
  const BroadcastScheme* base = nullptr;
  const Dataset* dataset = nullptr;
  SchemeKind kind = SchemeKind::kFlat;
  BucketGeometry geometry;
  SchemeParams params;
  /// The square-root-rule plan — telemetry for any active scheduler and
  /// the online loop's starting assignment.
  std::optional<DiskAssignment> planned;
  std::optional<OnlineRetierer> retierer;
  std::unique_ptr<BroadcastScheme> live;
  std::int64_t epochs = 0;
  std::int64_t moves = 0;
  std::int64_t rebuild_failures = 0;

  /// Call once per run, after the server is built from the same resolved
  /// params. A failed plan leaves the runtime passive, which cannot
  /// happen for a validated config (the server build consumed the same
  /// plan).
  void Start(const BroadcastServer& server, const Dataset& dataset_in,
             const TestbedConfig& config) {
    base = &server.scheme();
    params = ResolvedSchemeParams(config);
    if (!params.schedule.active()) return;
    Result<DiskAssignment> plan =
        ScheduleAssignmentFor(params.schedule, dataset_in.size());
    if (!plan.ok()) return;
    planned = std::move(plan).value();
    if (params.schedule.scheduler != SchedulerKind::kOnline) return;
    dataset = &dataset_in;
    kind = config.scheme;
    geometry = config.geometry;
    retierer.emplace(*planned);
  }

  const BroadcastScheme& scheme() const { return live ? *live : *base; }

  bool observing() const { return retierer.has_value(); }

  /// Feeds one on-air request to the retierer. Closing an epoch re-tiers
  /// and rebuilds the live program; a rebuild failure keeps the previous
  /// program and is counted rather than fatal (the boundary/frequency
  /// template never changes, so failures need a logic bug to occur).
  void Observe(std::string_view key) {
    const int record = dataset->FindIndex(key);
    if (record < 0) return;
    retierer->Observe(record);
    if (retierer->observed_this_epoch() < params.schedule.retier_requests) {
      return;
    }
    moves += retierer->EndEpoch();
    ++epochs;
    Result<ScheduledBroadcast> rebuilt =
        ScheduledBroadcast::BuildWithAssignment(
            kind,
            std::shared_ptr<const Dataset>(std::shared_ptr<const void>(),
                                           dataset),
            geometry, params, retierer->assignment());
    if (!rebuilt.ok()) {
      ++rebuild_failures;
      return;
    }
    live = std::make_unique<ScheduledBroadcast>(std::move(rebuilt).value());
  }
};

/// The longest broadcast cycle in play — the time base of the server
/// update schedule (update_rate is "updates per broadcast cycle").
Bytes ServerCycleBytes(const BroadcastServer& server) {
  if (const MultiChannelProgram* multi = server.multichannel();
      multi != nullptr) {
    return multi->group().max_cycle_bytes();
  }
  return server.channel().cycle_bytes();
}

SessionClientParams BuildSessionParams(const TestbedConfig& config,
                                       const BroadcastServer& server) {
  SessionClientParams params;
  params.cache_capacity = config.client.cache_capacity;
  params.cache_policy = config.client.cache_policy;
  if (config.client.update_rate > 0.0) {
    params.update_period = std::max<Bytes>(
        1, static_cast<Bytes>(
               std::llround(static_cast<double>(ServerCycleBytes(server)) /
                            config.client.update_rate)));
    // Config-level, not replication-level: the server mutates data on
    // one global schedule every replication observes identically.
    params.update_seed = Mix64(config.seed ^ 0xc11e47caULL);
    params.validation_bytes = config.geometry.signature_bytes;
  }
  return params;
}

/// PIX needs each record's broadcast frequency; the other policies
/// ignore it, so skip the channel scan for them.
std::vector<double> SessionFrequencies(const BroadcastServer& server,
                                       int num_records, CachePolicy policy) {
  if (policy != CachePolicy::kPix) return {};
  std::vector<const Channel*> channels;
  if (const MultiChannelProgram* multi = server.multichannel();
      multi != nullptr) {
    for (int c = 0; c < multi->group().num_channels(); ++c) {
      channels.push_back(&multi->group().channel(c));
    }
  } else {
    channels.push_back(&server.channel());
  }
  return BroadcastFrequencies(channels, num_records);
}

/// One replication's access pipeline: the only place a request meets the
/// broadcast. It owns every piece of per-replication client and server
/// state — the schedule runtime, the dynamic-dataset overlay, the
/// unreliable channel's RNG and the session client — so a replication
/// stays a pure function of (server, dataset, config, seed) and --jobs
/// bit-identity holds.
///
/// A request runs the session cache when one is configured; its misses,
/// and every request of a stateless client, take the same protocol walk
/// (Protocol): the dynamic overlay when the data mutates, otherwise the
/// live scheme over the lossy or lossless channel, then the deadline.
/// The pipeline is itself the session's RecordFetcher and, with the
/// overlay active, its DynamicVersionSource.
class AccessPipeline final : public RecordFetcher,
                             public DynamicVersionSource {
 public:
  struct Outcome {
    AccessResult access;
    /// The generator's on-air draw, gated by record liveness at the
    /// instant the access ran: a record the MutationLog has deleted is
    /// legitimately not found.
    bool expected_on_air = false;
  };

  /// Starts the schedule runtime and, when the config asks for them, the
  /// dynamic overlay (seeded from `seed`: each replication owns an
  /// independent slice of mutation history, like its request stream)
  /// and the session client. `error_rng` is the unreliable channel's
  /// stream.
  AccessPipeline(const BroadcastServer& server, const Dataset& dataset,
                 const TestbedConfig& config, std::uint64_t seed,
                 Rng error_rng)
      : server_(server),
        config_(config),
        error_rng_(error_rng),
        unreliable_(config.error_model.bucket_error_rate > 0.0) {
    schedule_.Start(server, dataset, config);
    if (config.client.update_rate > 0.0) {
      DynamicRuntime::Params params;
      params.kind = config.scheme;
      params.universe = std::shared_ptr<const Dataset>(
          std::shared_ptr<const void>(), &dataset);
      params.geometry = config.geometry;
      params.scheme_params = ResolvedSchemeParams(config);
      params.update_rate = config.client.update_rate;
      params.update_zipf = config.client.update_zipf;
      params.compact_every = config.client.compact_every;
      params.seed = Mix64(seed ^ 0xdc2a5ee0ULL);
      params.epoch_bytes = server.channel().cycle_bytes();
      params.base_scheme = &server.scheme();
      // Cannot fail: the server was built from the same validated config.
      const Status started = dynamic_.Start(std::move(params));
      (void)started;
    }
    // Engaged only when the cache has capacity — the zero-capacity
    // bypass keeps stateless runs byte-identical.
    if (config.client.cache_capacity > 0) {
      SessionClientParams params = BuildSessionParams(config, server);
      if (dynamic_.active()) params.versions = this;
      session_.emplace(&dataset, params,
                       SessionFrequencies(server, dataset.size(),
                                          config.client.cache_policy),
                       this);
    }
  }

  AccessPipeline(const AccessPipeline&) = delete;
  AccessPipeline& operator=(const AccessPipeline&) = delete;

  /// Runs the configured warmup queries through the cache's fast path so
  /// measurement starts at the steady state the analytical models
  /// describe. Draws from the measured generator stream (deterministic);
  /// absent keys warm nothing, exactly like a measured miss.
  void WarmCache(RequestGenerator* generator) {
    if (!session_) return;
    for (int i = 0; i < config_.client.warmup_queries; ++i) {
      const Query query = generator->NextQuery();
      if (query.on_air) session_->WarmInsert(query.key, 0);
    }
  }

  /// Serves `query` for a client tuning in at `now`.
  Outcome Access(const Query& query, Bytes now) {
    const AccessResult access = session_ ? session_->Access(query.key, now)
                                         : Protocol(query.key, now);
    if (schedule_.observing() && query.on_air) schedule_.Observe(query.key);
    return {access, dynamic_.active() ? dynamic_.ExpectedOnAir(
                                            query.on_air, query.key, now)
                                      : query.on_air};
  }

  /// The session client's miss path.
  AccessResult Fetch(std::string_view key, Bytes tune_in) override {
    return Protocol(key, tune_in);
  }

  /// The session client's record versions: the overlay's MutationLog
  /// replaces the synthetic update schedule.
  std::int64_t Version(int record_index, Bytes now) override {
    return dynamic_.VersionAt(record_index, now);
  }

  MetricsRegistry SnapshotMetrics(const Simulation& simulation,
                                  const ResultHandler& results) const;

 private:
  AccessResult Protocol(std::string_view key, Bytes tune_in) {
    if (dynamic_.active()) {
      return ApplyDeadline(dynamic_.Access(key, tune_in), config_.deadline);
    }
    return ApplyDeadline(
        unreliable_ ? AccessWithErrors(schedule_.scheme(), key, tune_in,
                                       config_.error_model, &error_rng_)
                    : schedule_.scheme().Access(key, tune_in),
        config_.deadline);
  }

  const BroadcastServer& server_;
  const TestbedConfig& config_;
  Rng error_rng_;
  const bool unreliable_;
  ScheduleRuntime schedule_;
  DynamicRuntime dynamic_;
  std::optional<SessionClient> session_;
};

/// Snapshots one replication's telemetry into a registry. Every
/// replication touches the same names in the same order, which keeps the
/// merged entry order (and therefore the JSON report) deterministic and
/// --jobs independent.
MetricsRegistry AccessPipeline::SnapshotMetrics(
    const Simulation& simulation, const ResultHandler& results) const {
  const SessionClient* session = session_ ? &*session_ : nullptr;
  MetricsRegistry metrics;
  metrics.Increment("sim.events_processed",
                    static_cast<std::int64_t>(simulation.events_processed()));
  metrics.Increment("server.buckets_broadcast",
                    server_.BucketsBroadcastBy(simulation.now()));
  metrics.Increment("client.buckets_listened", results.buckets_listened());
  metrics.Increment("client.bytes_listened", results.bytes_listened());
  metrics.Increment("client.bytes_dozed", results.bytes_dozed());
  metrics.Increment("client.index_probes", results.index_probes());
  metrics.Increment("client.overflow_hops", results.overflow_hops());
  metrics.Increment("client.error_retries", results.error_retries());
  // The multichannel block is emitted only when a channel group is in
  // play, so single-channel reports stay byte-identical with the
  // pre-multichannel baselines.
  if (const MultiChannelProgram* multi = server_.multichannel();
      multi != nullptr) {
    metrics.Increment("client.channel_hops", results.channel_hops());
    metrics.Increment("client.switch_bytes", results.switch_bytes());
    for (int c = 0; c < multi->group().num_channels(); ++c) {
      metrics.Increment("client.tuning_bytes_ch" + std::to_string(c),
                        results.tuning_bytes_on_channel(c));
    }
    // Conflict-aware placement counters, only for scheduled groups so
    // flat-scheduler multichannel reports stay byte-identical.
    if (schedule_.planned.has_value()) {
      const ConflictPlacement& conflict = multi->conflict_placement();
      metrics.Increment("schedule.conflict_pairs", conflict.hot_pairs);
      metrics.Increment("schedule.conflict_baseline",
                        conflict.baseline_collisions);
      metrics.Increment("schedule.conflict_collisions", conflict.collisions);
    }
  }
  // Likewise the session block appears only when the client cache is
  // engaged, keeping stateless-client reports byte-identical.
  if (session != nullptr) {
    metrics.Increment("client.session_queries", session->session_queries());
    metrics.Increment("client.cache_hits", session->hits());
    metrics.Increment("client.cache_misses", session->misses());
    metrics.Increment("client.cache_hit_bytes", session->hit_bytes());
    metrics.Increment("client.cache_validation_bytes",
                      session->validation_bytes());
    metrics.Increment("client.cache_invalidations",
                      session->invalidations());
    metrics.Increment("client.cache_evictions", session->evictions());
    metrics.Increment("client.cache_warm_inserts", session->warm_inserts());
  }
  // The schedule block appears only for single-channel scheduled runs,
  // keeping flat-scheduler reports byte-identical with the committed
  // baselines. occurrences == data_slots is the exact per-cycle
  // accounting identity bench_compare --strict-counters enforces; it
  // holds across re-tiers because the boundary/frequency template is
  // fixed.
  if (schedule_.planned.has_value() && server_.multichannel() == nullptr) {
    metrics.Increment(
        "schedule.num_disks",
        static_cast<std::int64_t>(schedule_.planned->num_disks()));
    metrics.Increment(
        "schedule.major_frequency",
        static_cast<std::int64_t>(schedule_.planned->max_frequency()));
    metrics.Increment("schedule.data_slots",
                      schedule_.planned->SlotsPerMajorCycle());
    metrics.Increment("schedule.occurrences",
                      static_cast<std::int64_t>(
                          schedule_.scheme().channel().num_data_buckets()));
    metrics.Increment("schedule.retier_epochs", schedule_.epochs);
    metrics.Increment("schedule.retier_moves", schedule_.moves);
    metrics.Increment("schedule.rebuild_failures",
                      schedule_.rebuild_failures);
  }
  // The dynamic block appears only when the mutation engine is engaged
  // (update_rate > 0) — a config-level predicate, so every replication
  // of a run emits the same names and --update-rate 0 reports stay
  // byte-identical with the committed baselines. The identities
  // bench_compare --strict-counters pins are documented in
  // docs/METRICS.md.
  if (dynamic_.active()) {
    const DynamicCounters& d = dynamic_.counters();
    metrics.Increment("dynamic.cycles", d.cycles);
    metrics.Increment("dynamic.patched_cycles", d.patched_cycles);
    metrics.Increment("dynamic.rebuilt_cycles", d.rebuilt_cycles);
    metrics.Increment("dynamic.mutations", d.mutations);
    metrics.Increment("dynamic.inserts", d.inserts);
    metrics.Increment("dynamic.deletes", d.deletes);
    metrics.Increment("dynamic.updates", d.updates);
    metrics.Increment("dynamic.freelist_pushes", d.freelist_pushes);
    metrics.Increment("dynamic.freelist_pops", d.freelist_pops);
    metrics.Increment("dynamic.delta_appends", d.delta_appends);
    metrics.Increment("dynamic.queries", d.queries);
    metrics.Increment("dynamic.dirty_queries", d.dirty_queries);
    metrics.Increment("dynamic.delta_reads", d.delta_reads);
    metrics.Increment("dynamic.delta_read_bytes", d.delta_read_bytes);
    metrics.Increment("dynamic.compaction_failures",
                      dynamic_.compaction_failures());
    // Stale reads are the session client's invalidations: a cached copy
    // whose record the MutationLog has since touched. Without a cache
    // nothing can be read stale.
    metrics.Increment("dynamic.stale_reads",
                      session != nullptr ? session->invalidations() : 0);
  }
  return metrics;
}

}  // namespace

Status ValidateTestbedConfig(const TestbedConfig& config) {
  if (config.dataset == nullptr && config.num_records <= 0) {
    return Status::InvalidArgument("num_records must be positive");
  }
  if (config.dataset != nullptr && config.dataset->size() == 0) {
    return Status::InvalidArgument("external dataset is empty");
  }
  // Every range check below is written so that NaN fails it, and every
  // unbounded one also demands a finite value: a non-finite number never
  // reaches the generators (floor(inf) cast to an integer is UB).
  if (!(config.data_availability >= 0.0 && config.data_availability <= 1.0)) {
    return Status::InvalidArgument("data_availability must be in [0,1]");
  }
  if (!(config.mean_request_interval_bytes > 0.0 &&
        std::isfinite(config.mean_request_interval_bytes))) {
    return Status::InvalidArgument("mean request interval must be finite, positive");
  }
  if (config.deadline.access_deadline_bytes < 0) {
    return Status::InvalidArgument("deadline must be non-negative");
  }
  if (!(config.zipf_theta >= 0.0 && std::isfinite(config.zipf_theta))) {
    return Status::InvalidArgument("zipf_theta must be finite, non-negative");
  }
  if (!(config.error_model.bucket_error_rate >= 0.0 &&
        config.error_model.bucket_error_rate < 1.0)) {
    return Status::InvalidArgument("bucket error rate must be in [0,1)");
  }
  if (config.requests_per_round <= 0) {
    return Status::InvalidArgument("requests_per_round must be positive");
  }
  if (!(config.confidence_level > 0.0 && config.confidence_level < 1.0)) {
    return Status::InvalidArgument("confidence level must be in (0,1)");
  }
  if (!(config.confidence_accuracy > 0.0 && std::isfinite(config.confidence_accuracy))) {
    return Status::InvalidArgument("confidence accuracy must be finite, positive");
  }
  if (config.min_rounds < 1 || config.max_rounds < config.min_rounds) {
    return Status::InvalidArgument("bad round bounds");
  }
  if (config.multichannel.num_channels < 1 ||
      config.multichannel.num_channels > 64) {
    return Status::InvalidArgument("num_channels must be in [1, 64]");
  }
  if (config.multichannel.switch_cost_bytes < 0) {
    return Status::InvalidArgument("switch cost must be non-negative");
  }
  if (config.client.cache_capacity < 0) {
    return Status::InvalidArgument("cache capacity must be non-negative");
  }
  if (config.client.session_length < 1) {
    return Status::InvalidArgument("session length must be positive");
  }
  if (!(config.client.repeat_probability >= 0.0 &&
        config.client.repeat_probability <= 1.0)) {
    return Status::InvalidArgument("repeat probability must be in [0,1]");
  }
  if (!(config.client.update_rate >= 0.0 && std::isfinite(config.client.update_rate))) {
    return Status::InvalidArgument("update rate must be finite, non-negative");
  }
  if (!(config.client.update_zipf >= 0.0 && std::isfinite(config.client.update_zipf))) {
    return Status::InvalidArgument("update zipf must be finite, non-negative");
  }
  if (config.client.compact_every < 0) {
    return Status::InvalidArgument("compact period must be non-negative");
  }
  // The dynamic-dataset layer patches one live single-channel program;
  // the multichannel coordinator, the skew-aware schedulers and the
  // unreliable-channel wrapper all hold assumptions about a frozen
  // layout, so they are gated off rather than silently served stale
  // content. Deadlines compose (the impatience wrapper truncates the
  // dynamic walk like any other).
  if (config.client.update_rate > 0.0) {
    if (config.multichannel.num_channels != 1) {
      return Status::InvalidArgument(
          "dynamic datasets require a single channel");
    }
    if (config.params.schedule.active()) {
      return Status::InvalidArgument(
          "dynamic datasets are incompatible with skew-aware scheduling");
    }
    if (config.error_model.bucket_error_rate > 0.0) {
      return Status::InvalidArgument(
          "dynamic datasets require a lossless channel");
    }
  }
  if (config.client.warmup_queries < 0) {
    return Status::InvalidArgument("warmup queries must be non-negative");
  }
  if (const ScheduleParams& schedule = config.params.schedule;
      schedule.active()) {
    // Negative theta means "inherit zipf_theta"; NaN or inf is refused.
    if (!std::isfinite(schedule.theta)) {
      return Status::InvalidArgument("schedule theta must be finite");
    }
    if (schedule.num_disks < 1 || schedule.num_disks > 64) {
      return Status::InvalidArgument("schedule num_disks must be in [1, 64]");
    }
    if (schedule.retier_requests < 1) {
      return Status::InvalidArgument("retier_requests must be positive");
    }
    if (schedule.rotation_slots < 0) {
      return Status::InvalidArgument("rotation_slots must be non-negative");
    }
    if (config.multichannel.num_channels > 1) {
      if (config.multichannel.allocation !=
          ChannelAllocation::kDataPartitioned) {
        return Status::InvalidArgument(
            "skew-aware scheduling supports only the data-partitioned "
            "multichannel allocation");
      }
      if (schedule.rotation_slots != 0) {
        return Status::InvalidArgument(
            "rotation_slots is owned by the conflict-aware placer on "
            "multichannel runs");
      }
    }
    // Online re-tiering swaps the live program under exactly one client
    // walk path; the multichannel coordinator and the session cache both
    // hold references into the planned program, so they are gated off
    // rather than silently served a stale schedule.
    if (schedule.scheduler == SchedulerKind::kOnline) {
      if (config.multichannel.num_channels != 1) {
        return Status::InvalidArgument(
            "online re-tiering requires a single channel");
      }
      if (config.client.cache_capacity > 0) {
        return Status::InvalidArgument(
            "online re-tiering is incompatible with the client cache");
      }
    }
  }
  return Status::Ok();
}

SchemeParams ResolvedSchemeParams(const TestbedConfig& config) {
  SchemeParams params = config.params;
  if (params.schedule.active() && params.schedule.theta < 0.0) {
    params.schedule.theta = config.zipf_theta;
  }
  return params;
}

void FillChannelShape(const BroadcastServer& server,
                      SimulationResult* result) {
  if (const MultiChannelProgram* multi = server.multichannel();
      multi != nullptr) {
    const ChannelGroup& group = multi->group();
    result->cycle_bytes = group.max_cycle_bytes();
    result->num_buckets = static_cast<std::int64_t>(group.num_buckets());
    result->num_index_buckets =
        static_cast<std::int64_t>(group.num_index_buckets());
    result->num_signature_buckets =
        static_cast<std::int64_t>(group.num_signature_buckets());
    result->num_data_buckets =
        static_cast<std::int64_t>(group.num_data_buckets());
    result->num_channels = group.num_channels();
    return;
  }
  const Channel& channel = server.channel();
  result->cycle_bytes = channel.cycle_bytes();
  result->num_buckets = static_cast<std::int64_t>(channel.num_buckets());
  result->num_index_buckets =
      static_cast<std::int64_t>(channel.num_index_buckets());
  result->num_signature_buckets =
      static_cast<std::int64_t>(channel.num_signature_buckets());
  result->num_data_buckets =
      static_cast<std::int64_t>(channel.num_data_buckets());
  result->num_channels = 1;
}

Result<std::shared_ptr<const Dataset>> BuildTestbedDataset(
    const TestbedConfig& config) {
  if (config.dataset != nullptr) return config.dataset;
  DatasetConfig dataset_config;
  dataset_config.num_records = config.num_records;
  dataset_config.key_width = static_cast<int>(config.geometry.key_bytes);
  dataset_config.num_attributes = config.num_attributes;
  dataset_config.attribute_width = config.attribute_width;
  dataset_config.seed = Mix64(config.seed ^ 0xda7a5e7dULL);
  Result<Dataset> dataset_result = Dataset::Generate(dataset_config);
  if (!dataset_result.ok()) return dataset_result.status();
  return std::make_shared<const Dataset>(
      std::move(dataset_result).value());
}

ReplicationResult RunReplication(const BroadcastServer& server,
                                 const Dataset& dataset,
                                 const TestbedConfig& config,
                                 std::uint64_t replication_seed,
                                 const ZipfDistribution* shared_zipf) {
  // The simulation stage for exactly one round (paper Section 3): the
  // replication draws its own request stream from `replication_seed`,
  // generates `requests_per_round` arrivals, and drains the event queue
  // so every generated request completes.
  Rng master(replication_seed);
  RequestGenerator generator(
      &dataset, config.data_availability,
      config.mean_request_interval_bytes, master.Split(), config.zipf_theta,
      shared_zipf,
      SessionWorkload{config.client.session_length,
                      config.client.repeat_probability});
  AccessPipeline pipeline(server, dataset, config, replication_seed,
                          master.Split());
  pipeline.WarmCache(&generator);
  ResultHandler results;

  // Request arrival: run the access protocol (the pure "listen" walk) and
  // schedule the completion event at the download time. Both event
  // closures must fit the EventQueue's inline buffer so the per-request
  // path never heap-allocates.
  Simulation simulation;
  int generated = 0;
  std::function<void()> schedule_next_arrival = [&]() {
    auto on_arrival = [&]() {
      ++generated;
      const AccessPipeline::Outcome outcome =
          pipeline.Access(generator.NextQuery(), simulation.now());
      auto on_completion = [&results, outcome]() {
        results.Add(outcome.access, outcome.expected_on_air);
      };
      static_assert(
          EventQueue::Callback::fits_inline<decltype(on_completion)>,
          "completion event must stay allocation-free");
      simulation.ScheduleIn(outcome.access.access_time,
                            std::move(on_completion));
      if (generated < config.requests_per_round) schedule_next_arrival();
    };
    static_assert(EventQueue::Callback::fits_inline<decltype(on_arrival)>,
                  "arrival event must stay allocation-free");
    simulation.ScheduleIn(generator.NextInterArrival(),
                          std::move(on_arrival));
  };
  schedule_next_arrival();
  simulation.Run();

  ReplicationResult replication;
  replication.access = results.access();
  replication.tuning = results.tuning();
  replication.probes = results.probes();
  replication.access_histogram = results.access_histogram();
  replication.tuning_histogram = results.tuning_histogram();
  replication.requests = results.requests();
  replication.found = results.found();
  replication.abandoned = results.abandoned();
  replication.false_drops = results.false_drops();
  replication.anomalies = results.anomalies();
  replication.outcome_mismatches = results.outcome_mismatches();
  replication.metrics = pipeline.SnapshotMetrics(simulation, results);
  const ResultHandler::RoundStats round = results.CloseRound();
  replication.round_access_mean = round.access_mean;
  replication.round_tuning_mean = round.tuning_mean;
  return replication;
}

}  // namespace airindex

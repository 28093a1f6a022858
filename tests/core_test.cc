// Tests for the testbed core: request generation, result handling,
// accuracy control, and RunTestbed integration behaviour.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/accuracy_controller.h"
#include "core/broadcast_server.h"
#include "core/experiment.h"
#include "core/request_generator.h"
#include "core/result_handler.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "des/random.h"

namespace airindex {
namespace {

Dataset MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  return Dataset::Generate(config).value();
}

TEST(RequestGenerator, AvailabilityControlsHitRate) {
  const Dataset dataset = MakeDataset(100);
  for (const double availability : {0.0, 0.35, 1.0}) {
    RequestGenerator generator(&dataset, availability, 1000.0, Rng(5));
    int on_air = 0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
      const Query query = generator.NextQuery();
      const bool actually_present = dataset.FindIndex(query.key) >= 0;
      EXPECT_EQ(query.on_air, actually_present);
      if (query.on_air) ++on_air;
    }
    EXPECT_NEAR(static_cast<double>(on_air) / kDraws, availability, 0.02);
  }
}

TEST(RequestGenerator, InterArrivalsArepositiveWithRequestedMean) {
  const Dataset dataset = MakeDataset(10);
  RequestGenerator generator(&dataset, 1.0, 700.0, Rng(6));
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const Bytes delta = generator.NextInterArrival();
    EXPECT_GE(delta, 1);
    sum += static_cast<double>(delta);
  }
  EXPECT_NEAR(sum / kDraws, 700.0, 15.0);
}

TEST(ResultHandler, RoundsResetButTotalsAccumulate) {
  ResultHandler handler;
  AccessResult result;
  result.found = true;
  result.access_time = 100;
  result.tuning_time = 40;
  handler.Add(result, true);
  result.access_time = 200;
  handler.Add(result, true);
  EXPECT_EQ(handler.round_size(), 2);
  const ResultHandler::RoundStats round = handler.CloseRound();
  EXPECT_DOUBLE_EQ(round.access_mean, 150.0);
  EXPECT_DOUBLE_EQ(round.tuning_mean, 40.0);
  EXPECT_EQ(round.requests, 2);
  EXPECT_EQ(handler.round_size(), 0);
  EXPECT_EQ(handler.requests(), 2);
  EXPECT_EQ(handler.found(), 2);
}

TEST(ResultHandler, CountsMismatchesAndAnomalies) {
  ResultHandler handler;
  AccessResult result;
  result.found = false;
  result.anomalies = 2;
  result.false_drops = 3;
  handler.Add(result, /*expected_on_air=*/true);  // mismatch!
  EXPECT_EQ(handler.outcome_mismatches(), 1);
  EXPECT_EQ(handler.anomalies(), 2);
  EXPECT_EQ(handler.false_drops(), 3);
  result.found = true;
  result.anomalies = 0;
  handler.Add(result, true);  // fine
  EXPECT_EQ(handler.outcome_mismatches(), 1);
}

TEST(AccuracyController, RequiresBothMetrics) {
  AccuracyController controller(0.99, 0.01);
  // Access converges (identical values), tuning oscillates wildly.
  for (int i = 0; i < 50; ++i) {
    controller.AddRound(100.0, i % 2 == 0 ? 10.0 : 1000.0);
  }
  EXPECT_FALSE(controller.Satisfied());
  AccuracyController both(0.99, 0.01);
  for (int i = 0; i < 50; ++i) both.AddRound(100.0, 10.0);
  EXPECT_TRUE(both.Satisfied());
  EXPECT_EQ(both.rounds(), 50);
}

TestbedConfig SmallConfig(SchemeKind scheme) {
  TestbedConfig config;
  config.scheme = scheme;
  config.num_records = 300;
  config.geometry.record_bytes = 100;
  config.geometry.key_bytes = 10;
  config.requests_per_round = 100;
  config.min_rounds = 5;
  config.max_rounds = 60;
  return config;
}

TEST(RunTestbed, AllSchemesProduceCleanRuns) {
  for (const SchemeKind kind :
       {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
        SchemeKind::kHashing, SchemeKind::kSignature,
        SchemeKind::kIntegratedSignature, SchemeKind::kMultiLevelSignature}) {
    const Result<SimulationResult> run = RunTestbed(SmallConfig(kind));
    ASSERT_TRUE(run.ok()) << SchemeKindToString(kind);
    const SimulationResult& result = run.value();
    EXPECT_EQ(result.outcome_mismatches, 0) << SchemeKindToString(kind);
    EXPECT_EQ(result.anomalies, 0) << SchemeKindToString(kind);
    EXPECT_EQ(result.found, result.requests) << SchemeKindToString(kind);
    EXPECT_GE(result.requests, 500);
    EXPECT_GT(result.access.mean(), 0.0);
    EXPECT_GT(result.tuning.mean(), 0.0);
    EXPECT_LE(result.tuning.mean(), result.access.mean());
  }
}

TEST(RunTestbed, DeterministicForEqualSeeds) {
  const TestbedConfig config = SmallConfig(SchemeKind::kDistributed);
  const SimulationResult a = RunTestbed(config).value();
  const SimulationResult b = RunTestbed(config).value();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.access.mean(), b.access.mean());
  EXPECT_DOUBLE_EQ(a.tuning.mean(), b.tuning.mean());
  TestbedConfig other = config;
  other.seed = 43;
  const SimulationResult c = RunTestbed(other).value();
  EXPECT_NE(a.access.mean(), c.access.mean());
}

TEST(RunTestbed, AvailabilityReflectedInFoundRate) {
  TestbedConfig config = SmallConfig(SchemeKind::kDistributed);
  config.data_availability = 0.4;
  const SimulationResult result = RunTestbed(config).value();
  EXPECT_EQ(result.outcome_mismatches, 0);
  EXPECT_NEAR(result.found_rate(), 0.4, 0.05);
}

TEST(RunTestbed, StopsAtMaxRoundsWhenNotConverged) {
  TestbedConfig config = SmallConfig(SchemeKind::kFlat);
  config.confidence_accuracy = 1e-9;  // unreachable
  config.max_rounds = 8;
  const SimulationResult result = RunTestbed(config).value();
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds, 8);
}

TEST(RunTestbed, ConvergedRunsReportAccuracy) {
  TestbedConfig config = SmallConfig(SchemeKind::kHashing);
  config.confidence_accuracy = 0.05;
  config.max_rounds = 200;
  const SimulationResult result = RunTestbed(config).value();
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.access_check.relative_accuracy, 0.05);
  EXPECT_LE(result.tuning_check.relative_accuracy, 0.05);
}

TEST(RunTestbed, RejectsBadConfigs) {
  TestbedConfig config = SmallConfig(SchemeKind::kFlat);
  config.num_records = 0;
  EXPECT_FALSE(RunTestbed(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.data_availability = 1.5;
  EXPECT_FALSE(RunTestbed(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.mean_request_interval_bytes = 0;
  EXPECT_FALSE(RunTestbed(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.confidence_level = 1.0;
  EXPECT_FALSE(RunTestbed(config).ok());
  config = SmallConfig(SchemeKind::kFlat);
  config.max_rounds = 1;
  config.min_rounds = 5;
  EXPECT_FALSE(RunTestbed(config).ok());
}

TEST(RunTestbed, ChannelShapeReported) {
  const SimulationResult result =
      RunTestbed(SmallConfig(SchemeKind::kSignature)).value();
  EXPECT_EQ(result.num_data_buckets, 300);
  EXPECT_EQ(result.num_signature_buckets, 300);
  EXPECT_EQ(result.cycle_bytes, 300 * (100 + 16));
}

// One replication of a composed access path, rendered bit-exactly: the
// outcome counters, the access/tuning means as hex floats, and every
// metrics entry in registry order ("~" marks a gauge).
std::string DescribeReplication(const ReplicationResult& r) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "requests=%lld\nfound=%lld\nabandoned=%lld\nmismatches=%lld\n"
                "access=%a\ntuning=%a\n",
                static_cast<long long>(r.requests),
                static_cast<long long>(r.found),
                static_cast<long long>(r.abandoned),
                static_cast<long long>(r.outcome_mismatches),
                r.access.mean(), r.tuning.mean());
  std::string out = line;
  for (const MetricsRegistry::Entry& entry : r.metrics.entries()) {
    out += entry.name;
    out += entry.kind == MetricsRegistry::Kind::kGauge ? "~" : "=";
    out += std::to_string(entry.value) + "\n";
  }
  return out;
}

TestbedConfig PinnedConfig(SchemeKind scheme) {
  TestbedConfig config = SmallConfig(scheme);
  config.requests_per_round = 200;
  config.seed = 1234;
  return config;
}

// The feature compositions no committed baseline covers, each paired
// with its pinned replication. Every value is bit-exact, so any change to
// the session, dynamic, lossy-channel or deadline dispatch — or to its
// RNG draw order — shows.
std::vector<std::pair<TestbedConfig, std::string>> PinnedReplications() {
  std::vector<std::pair<TestbedConfig, std::string>> pinned;

  TestbedConfig lossy_session = PinnedConfig(SchemeKind::kOneM);
  lossy_session.zipf_theta = 0.8;
  lossy_session.error_model.bucket_error_rate = 0.05;
  lossy_session.deadline.access_deadline_bytes = 20000;
  lossy_session.client.cache_capacity = 32;
  lossy_session.client.session_length = 4;
  lossy_session.client.repeat_probability = 0.5;
  lossy_session.client.warmup_queries = 50;
  pinned.emplace_back(lossy_session, R"(requests=200
found=102
abandoned=98
mismatches=0
access=0x1.6364a3d70a3d9p+13
tuning=0x1.c96147ae147abp+7
sim.events_processed=400
server.buckets_broadcast=115277
client.buckets_listened=420
client.bytes_listened=45738
client.bytes_dozed=2228778
client.index_probes=396
client.overflow_hops=0
client.error_retries=36
client.session_queries=200
client.cache_hits=78
client.cache_misses=122
client.cache_hit_bytes=0
client.cache_validation_bytes=0
client.cache_invalidations=0
client.cache_evictions=16
client.cache_warm_inserts=50
)");

  TestbedConfig dynamic_session = PinnedConfig(SchemeKind::kOneM);
  dynamic_session.data_availability = 0.9;
  dynamic_session.client.update_rate = 0.5;
  dynamic_session.client.compact_every = 4;
  dynamic_session.client.cache_capacity = 32;
  dynamic_session.client.session_length = 4;
  dynamic_session.client.repeat_probability = 0.5;
  dynamic_session.deadline.access_deadline_bytes = 20000;
  pinned.emplace_back(dynamic_session, R"(requests=200
found=35
abandoned=131
mismatches=0
access=0x1.0a280f5c28f5dp+14
tuning=0x1.8075c28f5c292p+8
sim.events_processed=400
server.buckets_broadcast=106978
client.buckets_listened=694
client.bytes_listened=76892
client.bytes_dozed=3330007
client.index_probes=647
client.overflow_hops=0
client.error_retries=0
client.session_queries=200
client.cache_hits=6
client.cache_misses=194
client.cache_hit_bytes=0
client.cache_validation_bytes=208
client.cache_invalidations=7
client.cache_evictions=0
client.cache_warm_inserts=0
dynamic.cycles=265
dynamic.patched_cycles=199
dynamic.rebuilt_cycles=66
dynamic.mutations=39750
dynamic.inserts=3612
dynamic.deletes=3635
dynamic.updates=32503
dynamic.freelist_pushes=3443
dynamic.freelist_pops=1938
dynamic.delta_appends=3661
dynamic.queries=194
dynamic.dirty_queries=77
dynamic.delta_reads=13
dynamic.delta_read_bytes=2600
dynamic.compaction_failures=0
dynamic.stale_reads=7
)");

  TestbedConfig online = PinnedConfig(SchemeKind::kFlat);
  online.zipf_theta = 0.95;
  online.params.schedule.scheduler = SchedulerKind::kOnline;
  online.params.schedule.num_disks = 4;
  online.params.schedule.retier_requests = 64;
  pinned.emplace_back(online, R"(requests=200
found=200
abandoned=0
mismatches=0
access=0x1.50d6999999999p+13
tuning=0x1.50d6999999999p+13
sim.events_processed=400
server.buckets_broadcast=104236
client.buckets_listened=21462
client.bytes_listened=2155765
client.bytes_dozed=0
client.index_probes=0
client.overflow_hops=0
client.error_retries=0
schedule.num_disks=4
schedule.major_frequency=5
schedule.data_slots=404
schedule.occurrences=404
schedule.retier_epochs=3
schedule.retier_moves=142
schedule.rebuild_failures=0
)");

  TestbedConfig multi_session = PinnedConfig(SchemeKind::kDistributed);
  multi_session.zipf_theta = 0.8;
  multi_session.multichannel.num_channels = 3;
  multi_session.multichannel.switch_cost_bytes = 64;
  multi_session.client.cache_capacity = 32;
  multi_session.client.cache_policy = CachePolicy::kPix;
  multi_session.client.session_length = 4;
  multi_session.client.repeat_probability = 0.5;
  pinned.emplace_back(multi_session, R"(requests=200
found=200
abandoned=0
mismatches=0
access=0x1.c8c0cccccccccp+11
tuning=0x1.4c770a3d70a3dp+8
sim.events_processed=400
server.buckets_broadcast=342399
client.buckets_listened=596
client.bytes_listened=66493
client.bytes_dozed=660600
client.index_probes=372
client.overflow_hops=0
client.error_retries=0
client.channel_hops=58
client.switch_bytes=3712
client.tuning_bytes_ch0=44346
client.tuning_bytes_ch1=14834
client.tuning_bytes_ch2=7313
client.session_queries=200
client.cache_hits=110
client.cache_misses=90
client.cache_hit_bytes=0
client.cache_validation_bytes=0
client.cache_invalidations=0
client.cache_evictions=58
client.cache_warm_inserts=0
)");

  TestbedConfig lossy_multi = PinnedConfig(SchemeKind::kHashing);
  lossy_multi.multichannel.num_channels = 2;
  lossy_multi.error_model.bucket_error_rate = 0.05;
  pinned.emplace_back(lossy_multi, R"(requests=200
found=200
abandoned=0
mismatches=0
access=0x1.d092999999995p+13
tuning=0x1.16a9999999997p+9
sim.events_processed=400
server.buckets_broadcast=208874
client.buckets_listened=1009
client.bytes_listened=111465
client.bytes_dozed=2861800
client.index_probes=400
client.overflow_hops=78
client.error_retries=49
client.channel_hops=97
client.switch_bytes=0
client.tuning_bytes_ch0=57572
client.tuning_bytes_ch1=53893
)");

  return pinned;
}

TEST(Simulator, ReplicationMatchesParent) {
  for (const auto& [config, expected] : PinnedReplications()) {
    ASSERT_TRUE(ValidateTestbedConfig(config).ok());
    const std::shared_ptr<const Dataset> dataset =
        BuildTestbedDataset(config).value();
    const BroadcastServer server =
        BroadcastServer::Create(config.scheme, dataset, config.geometry,
                                ResolvedSchemeParams(config),
                                config.multichannel)
            .value();
    const ReplicationResult replication = RunReplication(
        server, *dataset, config, ReplicationSeed(config.seed, 1));
    EXPECT_EQ(DescribeReplication(replication), expected);
  }
}

}  // namespace
}  // namespace airindex

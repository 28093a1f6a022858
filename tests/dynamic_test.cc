// Dynamic-dataset subsystem tests (src/dynamic + its integration):
//
//  D1. MutationLog determinism and accounting: identical seeds replay
//      identical op streams, every op bumps the target's version, and
//      the fractional credit accumulator issues exactly rate * N draws
//      per epoch in the long run;
//  D2. incremental replay (patch + deltas + compaction) ends at a live
//      program observably identical to a from-scratch rebuild of the
//      materialized dataset — for every scheme;
//  D3. found tracks MutationLog liveness while deltas are pending, and
//      the DynamicCounters identities hold (the ones bench_compare
//      gates);
//  D4. --update-rate 0 bypasses the layer: no dynamic.* metrics, and
//      the run is byte-stable against itself;
//  D5. the simulator emits dynamic.* with the strict identities, and
//      dynamic.stale_reads equals the session client's invalidation
//      count when a cache rides on top;
//  D6. simulated staleness / delta-read ratios track the closed-form
//      chain of analytical/dynamic_model.h (whose delete fraction must
//      equal the mutation engine's);
//  D7. --jobs {1,4,8} bit-identity holds with the dynamic layer on, for
//      every scheme;
//  D8. a mutated dataset changes DatasetFingerprint and compaction
//      re-snapshots through an injected ProgramCache builder (no stale
//      program-cache hits);
//  D9. the validator rejects configurations the dynamic layer cannot
//      compose with (multichannel, scheduler, lossy channel), and NaN
//      or infinite numbers in any field;
//  D10. MaterializeDataset equals a per-record reference rebuild of the
//      live dataset, and a failed compaction leaves the live program,
//      its answers and the cycle accounting intact.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytical/dynamic_model.h"
#include "core/experiment.h"
#include "core/program_cache.h"
#include "core/simulator.h"
#include "data/dataset.h"
#include "des/random.h"
#include "dynamic/dynamic_program.h"
#include "dynamic/mutation_log.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kFlat,
    SchemeKind::kOneM,
    SchemeKind::kDistributed,
    SchemeKind::kHashing,
    SchemeKind::kSignature,
    SchemeKind::kIntegratedSignature,
    SchemeKind::kMultiLevelSignature,
    SchemeKind::kBroadcastDisks,
    SchemeKind::kHybrid,
};

std::shared_ptr<const Dataset> MakeUniverse(int num_records) {
  DatasetConfig config;
  config.num_records = num_records;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

void ExpectCounterIdentities(const DynamicCounters& d) {
  EXPECT_EQ(d.patched_cycles + d.rebuilt_cycles, d.cycles);
  EXPECT_EQ(d.inserts + d.deletes + d.updates, d.mutations);
  EXPECT_LE(d.freelist_pops, d.freelist_pushes);
  EXPECT_LE(d.freelist_pushes, d.deletes);
  EXPECT_LE(d.freelist_pops, d.inserts);
  EXPECT_LE(d.dirty_queries, d.queries);
  EXPECT_LE(d.delta_reads, d.dirty_queries);
  EXPECT_EQ(d.delta_read_bytes == 0, d.delta_reads == 0);
}

TEST(DynamicModelTest, DeleteFractionMatchesMutationEngine) {
  // analytical/ must not link dynamic/, so the constant is duplicated;
  // this is the pin that keeps the two in lockstep.
  EXPECT_EQ(kDynamicModelDeleteFraction, kDynamicDeleteFraction);
}

TEST(MutationLogTest, DeterministicReplayAndVersioning) {
  MutationLog a(/*universe_size=*/50, /*rate=*/1.5, /*zipf_theta=*/0.8,
                /*seed=*/0xfeedULL);
  MutationLog b(50, 1.5, 0.8, 0xfeedULL);
  std::vector<std::int64_t> versions(50, 0);
  std::int64_t draws = 0;
  for (int epoch = 0; epoch < 16; ++epoch) {
    const std::vector<MutationOp>& ops_a = a.NextEpoch();
    const std::vector<MutationOp>& ops_b = b.NextEpoch();
    ASSERT_EQ(ops_a.size(), ops_b.size());
    for (std::size_t i = 0; i < ops_a.size(); ++i) {
      EXPECT_EQ(ops_a[i].kind, ops_b[i].kind);
      EXPECT_EQ(ops_a[i].record_index, ops_b[i].record_index);
      EXPECT_EQ(ops_a[i].version, ops_b[i].version);
      // Every op advances its target's version by exactly one.
      EXPECT_EQ(ops_a[i].version, ++versions[ops_a[i].record_index]);
    }
    draws += static_cast<std::int64_t>(ops_a.size());
  }
  // The credit accumulator issues rate * N draws per epoch with the
  // fraction carried over exactly: 16 epochs * 75.0 draws.
  EXPECT_EQ(draws, 16 * 75);
  EXPECT_EQ(a.epochs(), 16);
  // Liveness bookkeeping stays consistent with the flags.
  int live = 0;
  for (int i = 0; i < 50; ++i) live += a.live(i) ? 1 : 0;
  EXPECT_EQ(live, a.live_count());
  EXPECT_GT(live, 0);
}

class DynamicSchemeTest : public testing::TestWithParam<SchemeKind> {};

std::string SchemeName(const testing::TestParamInfo<SchemeKind>& info) {
  std::string name = SchemeKindToString(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

// D2 + D3: replay several epochs (spanning periodic compactions and a
// pending delta tail), check liveness-tracking, then compact and demand
// exact walk equality with a from-scratch rebuild of the materialized
// dataset.
TEST_P(DynamicSchemeTest, IncrementalReplayMatchesRebuild) {
  const SchemeKind kind = GetParam();
  const auto universe = MakeUniverse(60);
  const BucketGeometry geometry;
  const SchemeParams params;
  auto base = BuildScheme(kind, universe, geometry, params);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const Bytes epoch = base.value()->channel().cycle_bytes();

  DynamicRuntime runtime;
  DynamicRuntime::Params p;
  p.kind = kind;
  p.universe = universe;
  p.geometry = geometry;
  p.scheme_params = params;
  p.update_rate = 1.5;
  p.update_zipf = 0.6;
  p.compact_every = 3;
  p.seed = 0x5eedULL;
  p.epoch_bytes = epoch;
  p.base_scheme = base.value().get();
  ASSERT_TRUE(runtime.Start(std::move(p)).ok());

  // 7 epochs: compactions at 3 and 6, one epoch of deltas pending.
  const Bytes now = 7 * epoch + 1;
  runtime.AdvanceTo(now);
  Rng rng(0xabcdULL);
  for (int i = 0; i < 60; ++i) {
    const Bytes tune_in =
        now + static_cast<Bytes>(rng.NextBounded(
                  static_cast<std::uint64_t>(epoch - 2)));
    const AccessResult result =
        runtime.Access(universe->record(i).key, tune_in);
    EXPECT_EQ(result.found, runtime.log().live(i))
        << "record " << i << " at " << tune_in;
    EXPECT_GE(result.tuning_time, 0);
    EXPECT_LE(result.tuning_time, result.access_time);
    EXPECT_EQ(result.anomalies, 0);
    EXPECT_FALSE(result.abandoned);
  }
  ExpectCounterIdentities(runtime.counters());
  EXPECT_GT(runtime.counters().mutations, 0);
  if (!DynamicRuntime::PatchableScheme(kind)) {
    // The delta family cannot patch in place: every mutation appends.
    EXPECT_EQ(runtime.counters().delta_appends,
              runtime.counters().mutations);
    EXPECT_EQ(runtime.counters().freelist_pushes, 0);
  }

  // Compact, then the live program must be observably identical to a
  // from-scratch rebuild over the materialized (final) dataset.
  auto materialized = runtime.MaterializeDataset();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ASSERT_TRUE(runtime.ForceCompact());
  auto rebuilt = BuildScheme(kind, materialized.value(), geometry, params);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  for (int i = 0; i < 60; ++i) {
    const std::string_view key = universe->record(i).key;
    for (const Bytes offset : {Bytes{0}, epoch / 3, epoch - 5}) {
      const AccessResult incremental = runtime.Access(key, now + offset);
      const AccessResult scratch = rebuilt.value()->Access(key, now + offset);
      SCOPED_TRACE("record " + std::to_string(i) + " offset " +
                   std::to_string(offset));
      EXPECT_EQ(incremental.found, scratch.found);
      EXPECT_EQ(incremental.access_time, scratch.access_time);
      EXPECT_EQ(incremental.tuning_time, scratch.tuning_time);
      EXPECT_EQ(incremental.probes, scratch.probes);
      EXPECT_EQ(incremental.index_probes, scratch.index_probes);
      EXPECT_EQ(incremental.overflow_hops, scratch.overflow_hops);
      EXPECT_EQ(incremental.false_drops, scratch.false_drops);
    }
  }
  // Absent keys stay absent through mutation and compaction.
  for (int slot = 0; slot < 8; ++slot) {
    EXPECT_FALSE(runtime.Access(universe->absent_key(slot), now + 7).found);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DynamicSchemeTest,
                         testing::ValuesIn(kAllSchemes), SchemeName);

// D7: the acceptance criterion — with the dynamic layer on, replication
// results are bit-identical for --jobs {1,4,8}, for every scheme.
TEST(DynamicSimTest, JobsBitIdentityForEveryScheme) {
  for (const SchemeKind kind : kAllSchemes) {
    SCOPED_TRACE(SchemeKindToString(kind));
    TestbedConfig config;
    config.scheme = kind;
    config.num_records = 80;
    config.zipf_theta = 0.8;
    config.client.update_rate = 2.0;
    config.client.update_zipf = 0.7;
    config.client.compact_every = 2;
    config.client.cache_capacity = 16;
    config.client.session_length = 4;
    config.client.warmup_queries = 30;
    config.requests_per_round = 40;
    config.min_rounds = 3;
    config.max_rounds = 5;
    config.seed = 0x90125ULL + static_cast<std::uint64_t>(kind);

    std::vector<SimulationResult> results;
    for (const int jobs : {1, 4, 8}) {
      ParallelExperiment experiment({.jobs = jobs});
      auto run = experiment.Run(config);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      results.push_back(std::move(run).value());
    }
    const SimulationResult& reference = results.front();
    EXPECT_GT(reference.metrics.Get("dynamic.mutations"), 0);
    for (std::size_t j = 1; j < results.size(); ++j) {
      const SimulationResult& other = results[j];
      SCOPED_TRACE("jobs variant " + std::to_string(j));
      EXPECT_EQ(reference.requests, other.requests);
      EXPECT_EQ(reference.found, other.found);
      EXPECT_EQ(reference.outcome_mismatches, other.outcome_mismatches);
      EXPECT_EQ(reference.access.mean(), other.access.mean());
      EXPECT_EQ(reference.tuning.mean(), other.tuning.mean());
      EXPECT_TRUE(reference.metrics == other.metrics);
    }
  }
}

// D4: rate 0 must not leave a trace — the committed static baselines
// depend on it.
TEST(DynamicSimTest, RateZeroBypassesTheLayer) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 120;
  config.requests_per_round = 60;
  config.min_rounds = 3;
  config.max_rounds = 4;
  config.seed = 0xd15cULL;
  const SimulationResult sim = RunTestbed(config).value();
  for (const MetricsRegistry::Entry& entry : sim.metrics.entries()) {
    EXPECT_NE(entry.name.rfind("dynamic.", 0), 0u)
        << "rate 0 leaked counter " << entry.name;
  }
  const SimulationResult again = RunTestbed(config).value();
  EXPECT_EQ(sim.access.mean(), again.access.mean());
  EXPECT_TRUE(sim.metrics == again.metrics);
}

// D5: the simulator's dynamic.* block carries the identities
// bench_compare gates, without and with a session cache on top.
TEST(DynamicSimTest, SimulatorCountersSatisfyIdentities) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 150;
  config.zipf_theta = 0.9;
  config.client.update_rate = 2.0;
  config.client.update_zipf = 0.5;
  config.client.compact_every = 4;
  config.requests_per_round = 80;
  config.min_rounds = 4;
  config.max_rounds = 6;
  config.seed = 0xbead5ULL;
  const SimulationResult sim = RunTestbed(config).value();
  ASSERT_TRUE(sim.metrics.Has("dynamic.cycles"));
  DynamicCounters d;
  d.cycles = sim.metrics.Get("dynamic.cycles");
  d.patched_cycles = sim.metrics.Get("dynamic.patched_cycles");
  d.rebuilt_cycles = sim.metrics.Get("dynamic.rebuilt_cycles");
  d.mutations = sim.metrics.Get("dynamic.mutations");
  d.inserts = sim.metrics.Get("dynamic.inserts");
  d.deletes = sim.metrics.Get("dynamic.deletes");
  d.updates = sim.metrics.Get("dynamic.updates");
  d.freelist_pushes = sim.metrics.Get("dynamic.freelist_pushes");
  d.freelist_pops = sim.metrics.Get("dynamic.freelist_pops");
  d.delta_appends = sim.metrics.Get("dynamic.delta_appends");
  d.queries = sim.metrics.Get("dynamic.queries");
  d.dirty_queries = sim.metrics.Get("dynamic.dirty_queries");
  d.delta_reads = sim.metrics.Get("dynamic.delta_reads");
  d.delta_read_bytes = sim.metrics.Get("dynamic.delta_read_bytes");
  ExpectCounterIdentities(d);
  EXPECT_GT(d.cycles, 0);
  EXPECT_GT(d.mutations, 0);
  EXPECT_GT(d.rebuilt_cycles, 0);
  // No cache: the server observed no stale reads.
  EXPECT_EQ(sim.metrics.Get("dynamic.stale_reads"), 0);
  EXPECT_EQ(sim.outcome_mismatches, 0);
}

TEST(DynamicSimTest, StaleReadsEqualClientInvalidations) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 150;
  config.zipf_theta = 1.0;
  config.client.update_rate = 3.0;
  config.client.compact_every = 4;
  config.client.cache_capacity = 48;
  config.client.session_length = 6;
  config.client.repeat_probability = 0.3;
  config.client.warmup_queries = 200;
  config.requests_per_round = 80;
  config.min_rounds = 4;
  config.max_rounds = 6;
  config.seed = 0xca11edULL;
  const SimulationResult sim = RunTestbed(config).value();
  ASSERT_TRUE(sim.metrics.Has("client.session_queries"));
  EXPECT_GT(sim.metrics.Get("dynamic.stale_reads"), 0);
  // Real versions drive invalidation, so the server-side stale count IS
  // the client-side invalidation count.
  EXPECT_EQ(sim.metrics.Get("dynamic.stale_reads"),
            sim.metrics.Get("client.cache_invalidations"));
  EXPECT_LE(sim.metrics.Get("client.cache_invalidations"),
            sim.metrics.Get("client.cache_misses"));
}

// D6: simulation tracks the closed-form five-state chain, for one
// patchable and one delta-family scheme.
TEST(DynamicSimTest, StalenessTracksAnalyticalModel) {
  struct Cell {
    SchemeKind scheme;
    double rate;
    int compact_every;
  };
  const Cell cells[] = {
      {SchemeKind::kOneM, 4.0, 4},
      {SchemeKind::kOneM, 1.0, 8},
      {SchemeKind::kHashing, 4.0, 4},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(std::string(SchemeKindToString(cell.scheme)) + " rate " +
                 std::to_string(cell.rate) + " compact " +
                 std::to_string(cell.compact_every));
    TestbedConfig config;
    config.scheme = cell.scheme;
    config.num_records = 600;
    config.zipf_theta = 0.9;
    config.client.update_rate = cell.rate;
    config.client.update_zipf = 0.7;
    config.client.compact_every = cell.compact_every;
    config.requests_per_round = 300;
    config.min_rounds = 8;
    config.max_rounds = 10;
    config.seed = 0x5ca1eULL;
    const SimulationResult sim = RunTestbed(config).value();
    const double queries =
        static_cast<double>(sim.metrics.Get("dynamic.queries"));
    ASSERT_GT(queries, 0.0);
    const double stale =
        static_cast<double>(sim.metrics.Get("dynamic.dirty_queries")) /
        queries;
    const double delta =
        static_cast<double>(sim.metrics.Get("dynamic.delta_reads")) /
        queries;

    DynamicModelParams params;
    params.universe_size = config.num_records;
    params.update_rate = cell.rate;
    params.update_zipf = config.client.update_zipf;
    params.compact_every = cell.compact_every;
    params.patchable = DynamicRuntime::PatchableScheme(cell.scheme);
    params.workload_zipf = config.zipf_theta;
    params.data_availability = config.data_availability;
    params.epochs = static_cast<std::int64_t>(std::llround(
        static_cast<double>(sim.metrics.Get("dynamic.cycles")) /
        static_cast<double>(sim.rounds)));
    const DynamicModelResult model = EvaluateDynamicModel(params);
    EXPECT_NEAR(stale, model.dirty_probability, 0.08);
    EXPECT_NEAR(delta, model.delta_read_probability, 0.08);
    EXPECT_GT(model.live_fraction, 0.8);
    EXPECT_LE(model.live_fraction, 1.0);
  }
}

// D8: mutation must change the dataset content fingerprint, and the
// compaction path must key a fresh program-cache entry (then hit it on
// an identical rebuild) — never serve the pre-mutation snapshot.
TEST(DynamicCacheTest, MutationChangesFingerprintAndResnapshots) {
  const auto universe = MakeUniverse(40);
  const BucketGeometry geometry;
  const SchemeParams params;
  ProgramCache cache;  // memory-only
  auto base = cache.GetOrBuild(SchemeKind::kOneM, universe, geometry, params);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(cache.MetricsSnapshot().Get("program.builds"), 1);

  DynamicRuntime runtime;
  DynamicRuntime::Params p;
  p.kind = SchemeKind::kOneM;
  p.universe = universe;
  p.geometry = geometry;
  p.scheme_params = params;
  p.update_rate = 2.0;
  p.compact_every = 0;  // manual compaction below
  p.seed = 0xcac4eULL;
  p.epoch_bytes = base.value()->channel().cycle_bytes();
  p.base_scheme = base.value().get();
  p.builder = [&cache](SchemeKind kind, std::shared_ptr<const Dataset> ds,
                       const BucketGeometry& g, const SchemeParams& sp) {
    return cache.GetOrBuild(kind, std::move(ds), g, sp);
  };
  ASSERT_TRUE(runtime.Start(std::move(p)).ok());
  runtime.AdvanceTo(5 * base.value()->channel().cycle_bytes() + 1);
  ASSERT_GT(runtime.counters().mutations, 0);

  auto mutated = runtime.MaterializeDataset();
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  EXPECT_NE(DatasetFingerprint(*mutated.value()),
            DatasetFingerprint(*universe));

  ASSERT_TRUE(runtime.ForceCompact());
  // The mutated content keyed a second build — not a stale hit on the
  // pre-mutation entry.
  EXPECT_EQ(cache.MetricsSnapshot().Get("program.builds"), 2);
  // An identical rebuild request is served from memory.
  auto again = cache.GetOrBuild(SchemeKind::kOneM, mutated.value(), geometry,
                                params);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(cache.MetricsSnapshot().Get("program.builds"), 2);
  EXPECT_GE(cache.MetricsSnapshot().Get("program.memory_hits"), 1);
}

// D9: configurations the dynamic layer cannot compose with.
TEST(DynamicSimTest, ValidatorRejectsIncompatibleConfigs) {
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 60;
  config.client.update_rate = 1.0;
  EXPECT_TRUE(ValidateTestbedConfig(config).ok());

  TestbedConfig multichannel = config;
  multichannel.multichannel.num_channels = 2;
  EXPECT_FALSE(ValidateTestbedConfig(multichannel).ok());

  TestbedConfig scheduled = config;
  scheduled.params.schedule.scheduler = SchedulerKind::kSquareRoot;
  scheduled.params.schedule.num_disks = 3;
  EXPECT_FALSE(ValidateTestbedConfig(scheduled).ok());

  TestbedConfig lossy = config;
  lossy.error_model.bucket_error_rate = 0.01;
  EXPECT_FALSE(ValidateTestbedConfig(lossy).ok());

  TestbedConfig negative_zipf = config;
  negative_zipf.client.update_zipf = -0.5;
  EXPECT_FALSE(ValidateTestbedConfig(negative_zipf).ok());

  TestbedConfig negative_compact = config;
  negative_compact.client.compact_every = -1;
  EXPECT_FALSE(ValidateTestbedConfig(negative_compact).ok());

  // Deadlines compose with the dynamic layer.
  TestbedConfig deadline = config;
  deadline.deadline.access_deadline_bytes = 100000;
  EXPECT_TRUE(ValidateTestbedConfig(deadline).ok());
}

// Every double the validator range-checks refuses NaN and infinity: an
// infinite update rate used to validate and reach floor(inf) -> int64.
TEST(DynamicSimTest, ValidatorRejectsNonFiniteNumbers) {
  TestbedConfig base;
  base.scheme = SchemeKind::kOneM;
  base.num_records = 60;
  base.params.schedule.num_disks = 3;  // read only when a scheduler is on
  ASSERT_TRUE(ValidateTestbedConfig(base).ok());
  const auto rejects = [&base](auto set) {
    TestbedConfig config = base;
    set(config);
    return !ValidateTestbedConfig(config).ok();
  };
  for (const double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE("value " + std::to_string(v));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.data_availability = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.mean_request_interval_bytes = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.zipf_theta = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.confidence_level = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.confidence_accuracy = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.error_model.bucket_error_rate = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.client.repeat_probability = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.client.update_rate = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) { c.client.update_zipf = v; }));
    EXPECT_TRUE(rejects([=](TestbedConfig& c) {
      c.params.schedule.scheduler = SchedulerKind::kSquareRoot;
      c.params.schedule.theta = v;
    }));
  }
}

// D10: the reference materialization — a fresh Record per live universe
// record, every attribute rebuilt from its original value and version,
// then FromRecords. MaterializeDataset must reproduce it exactly.
std::string ReferenceMutatedAttribute(const std::string& attribute,
                                      std::int64_t version) {
  if (version == 0) return attribute;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : attribute) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  h ^= static_cast<std::uint64_t>(version) * 0x9e3779b97f4a7c15ULL;
  std::string out(attribute.size(), 'a');
  for (char& c : out) {
    h = Mix64(h);
    c = static_cast<char>('a' + (h % 26));
  }
  return out;
}

Dataset ReferenceMaterialize(const Dataset& universe, const MutationLog& log) {
  std::vector<Record> records;
  for (int r = 0; r < universe.size(); ++r) {
    if (!log.live(r)) continue;
    const Record& original = universe.record(r);
    Record record;
    record.id = static_cast<std::uint64_t>(records.size());
    record.key = original.key;
    for (const std::string& attribute : original.attributes) {
      record.attributes.push_back(
          ReferenceMutatedAttribute(attribute, log.version(r)));
    }
    records.push_back(std::move(record));
  }
  return Dataset::FromRecords(std::move(records)).value();
}

// A universe whose records carry 5 attributes of widths 3, 5, 7, 9 and
// 11: attribute counts that do not fill the rewrite's lanes, and lanes
// of unequal width (the generated universe has 8 equal-width ones).
std::shared_ptr<const Dataset> MixedWidthUniverse(int num_records) {
  const auto generated = MakeUniverse(num_records);
  std::vector<Record> records;
  for (const Record& original : generated->records()) {
    Record record;
    record.key = original.key;
    for (std::size_t a = 0; a < 5; ++a) {
      record.attributes.push_back(original.key.substr(a, 3 + 2 * a));
    }
    records.push_back(std::move(record));
  }
  return std::make_shared<const Dataset>(
      Dataset::FromRecords(std::move(records)).value());
}

TEST(DynamicTest, MaterializeMatchesReference) {
  const BucketGeometry geometry;
  for (const auto& universe : {MakeUniverse(300), MixedWidthUniverse(300)}) {
    auto base = BuildScheme(SchemeKind::kHashing, universe, geometry).value();
    const Bytes epoch = base->channel().cycle_bytes();
    for (const double zipf : {0.0, 0.7}) {
      DynamicRuntime runtime;
      DynamicRuntime::Params p;
      p.kind = SchemeKind::kHashing;
      p.universe = universe;
      p.geometry = geometry;
      p.update_rate = 1.5;
      p.update_zipf = zipf;
      p.seed = 0x3a7eULL;
      p.epoch_bytes = epoch;
      p.base_scheme = base.get();
      ASSERT_TRUE(runtime.Start(std::move(p)).ok());
      for (const int epochs : {1, 4, 9}) {
        SCOPED_TRACE(std::to_string(universe->config().num_attributes) +
                     " attributes, zipf " + std::to_string(zipf) + ", " +
                     std::to_string(epochs) + " epochs");
        runtime.AdvanceTo(epochs * epoch + 1);
        ASSERT_EQ(runtime.log().epochs(), epochs);
        auto materialized = runtime.MaterializeDataset();
        ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
        const Dataset& got = *materialized.value();
        const Dataset want = ReferenceMaterialize(*universe, runtime.log());
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(got.size(), runtime.log().live_count());
        for (int i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got.record(i).id, want.record(i).id);
          EXPECT_EQ(got.record(i).key, want.record(i).key);
          EXPECT_EQ(got.record(i).attributes, want.record(i).attributes);
        }
        for (int i = 0; i <= got.size(); ++i) {
          EXPECT_EQ(got.absent_key(i), want.absent_key(i)) << i;
        }
        EXPECT_EQ(DatasetFingerprint(got), DatasetFingerprint(want));
      }
      EXPECT_GT(runtime.counters().updates, 0);
    }
  }
}

// D10: a rebuild that fails keeps the previous live program in place —
// same object, same answers — counts the failure, and books its epoch
// as patched; a later successful rebuild compacts as usual.
TEST(DynamicTest, FailedCompactionKeepsLiveProgram) {
  const auto universe = MakeUniverse(80);
  const BucketGeometry geometry;
  auto base = BuildScheme(SchemeKind::kOneM, universe, geometry).value();
  const Bytes epoch = base->channel().cycle_bytes();
  auto fail = std::make_shared<bool>(true);

  DynamicRuntime runtime;
  DynamicRuntime::Params p;
  p.kind = SchemeKind::kOneM;
  p.universe = universe;
  p.geometry = geometry;
  p.update_rate = 1.0;
  p.compact_every = 3;
  p.seed = 0xfa11ULL;
  p.epoch_bytes = epoch;
  p.base_scheme = base.get();
  p.builder = [fail](SchemeKind kind, std::shared_ptr<const Dataset> dataset,
                     const BucketGeometry& g, const SchemeParams& params)
      -> Result<std::unique_ptr<BroadcastScheme>> {
    if (*fail) return Status::Internal("injected build failure");
    return BuildScheme(kind, std::move(dataset), g, params);
  };
  ASSERT_TRUE(runtime.Start(std::move(p)).ok());

  const Bytes now = epoch + 1;
  runtime.AdvanceTo(now);
  const BroadcastScheme* live = &runtime.live_scheme();
  EXPECT_EQ(live, base.get());
  const auto answers = [&] {
    std::vector<AccessResult> results;
    for (int i = 0; i < universe->size(); ++i) {
      results.push_back(
          runtime.Access(universe->record(i).key, now + 37 * i % (epoch - 1)));
    }
    return results;
  };
  const std::vector<AccessResult> before = answers();

  EXPECT_FALSE(runtime.ForceCompact());
  EXPECT_EQ(runtime.compaction_failures(), 1);
  EXPECT_EQ(&runtime.live_scheme(), live);
  const std::vector<AccessResult> after = answers();
  for (std::size_t i = 0; i < before.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(after[i].found, before[i].found);
    EXPECT_EQ(after[i].access_time, before[i].access_time);
    EXPECT_EQ(after[i].tuning_time, before[i].tuning_time);
    EXPECT_EQ(after[i].probes, before[i].probes);
  }

  // The periodic compaction at epoch 3 fails too: that epoch is patched.
  runtime.AdvanceTo(3 * epoch + 1);
  EXPECT_EQ(runtime.compaction_failures(), 2);
  EXPECT_EQ(&runtime.live_scheme(), live);
  EXPECT_EQ(runtime.counters().cycles, 3);
  EXPECT_EQ(runtime.counters().patched_cycles, 3);
  EXPECT_EQ(runtime.counters().rebuilt_cycles, 0);
  ExpectCounterIdentities(runtime.counters());

  // Once the builder succeeds, both the forced and the periodic path
  // compact.
  *fail = false;
  EXPECT_TRUE(runtime.ForceCompact());
  EXPECT_NE(&runtime.live_scheme(), live);
  runtime.AdvanceTo(6 * epoch + 1);
  EXPECT_EQ(runtime.compaction_failures(), 2);
  EXPECT_EQ(runtime.counters().cycles, 6);
  EXPECT_EQ(runtime.counters().rebuilt_cycles, 1);
  EXPECT_EQ(runtime.counters().patched_cycles, 5);
  ExpectCounterIdentities(runtime.counters());
  for (int i = 0; i < universe->size(); ++i) {
    EXPECT_EQ(runtime.Access(universe->record(i).key, 6 * epoch + 1).found,
              runtime.log().live(i));
  }
}

}  // namespace
}  // namespace airindex

// Serialization layer of the broadcast-program arena: per-scheme
// Serialize → Deserialize → Serialize byte identity, rejection (with a
// Status, never UB) of every class of corrupted buffer, the committed
// golden snapshot under tests/data/, and the on-disk program cache's
// warm/cold behaviour.
//
// Regenerate the golden file after a deliberate format change with
//   ./build/tools/program_snapshot write --scheme one_m --records 64 \
//       tests/data/one_m_n64_v1.snap
// and bump ProgramArena::kFormatVersion in the same change.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/arena.h"
#include "broadcast/snapshot.h"
#include "core/program_cache.h"
#include "data/dataset.h"
#include "schemes/multichannel.h"
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

struct Built {
  std::shared_ptr<const Dataset> dataset;
  std::unique_ptr<BroadcastScheme> scheme;
  ProgramArena arena;
};

// Mirrors tools/program_snapshot.cc's BuildProgram: default geometry and
// params, generated dataset — the same recipe that produced the golden
// file, so the golden test can rebuild its expected bytes.
Built BuildProgram(SchemeKind kind, int num_records) {
  DatasetConfig dataset_config;
  dataset_config.num_records = num_records;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(dataset_config).value());
  const BucketGeometry geometry;
  const SchemeParams params;
  auto scheme = BuildScheme(kind, dataset, geometry, params).value();
  ProgramArena arena =
      FlattenSchemeProgram(kind, *scheme, DatasetFingerprint(*dataset),
                           ProgramParamsFingerprint(kind, geometry, params))
          .value();
  return Built{std::move(dataset), std::move(scheme), std::move(arena)};
}

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + got);
  }
  std::fclose(file);
  return bytes;
}

TEST(SnapshotTest, RoundTripIsByteIdenticalForEveryScheme) {
  for (const SchemeKind kind : kAllSchemes) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built built = BuildProgram(kind, 180);
    const std::vector<std::uint8_t> wire =
        ProgramSnapshot::Serialize(built.arena);
    auto loaded = ProgramSnapshot::Deserialize(wire);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().bytes(), built.arena.bytes());
    EXPECT_EQ(ProgramSnapshot::Serialize(loaded.value()), wire);
    EXPECT_EQ(loaded.value().Checksum(), built.arena.Checksum());
  }
}

TEST(SnapshotTest, FlattenIsDeterministic) {
  for (const SchemeKind kind : kAllSchemes) {
    SCOPED_TRACE(SchemeKindToString(kind));
    const Built a = BuildProgram(kind, 96);
    const Built b = BuildProgram(kind, 96);
    EXPECT_EQ(a.arena.bytes(), b.arena.bytes());
  }
}

TEST(SnapshotTest, RejectsTruncatedBuffers) {
  const Built built = BuildProgram(SchemeKind::kOneM, 120);
  const std::vector<std::uint8_t> wire =
      ProgramSnapshot::Serialize(built.arena);
  // Every prefix shorter than the full snapshot must be rejected —
  // including the empty buffer and a bare header with no payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, sizeof(SnapshotHeader) - 1,
        sizeof(SnapshotHeader), sizeof(SnapshotHeader) + 1, wire.size() / 2,
        wire.size() - 1}) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    const std::vector<std::uint8_t> cut(wire.begin(), wire.begin() + keep);
    EXPECT_FALSE(ProgramSnapshot::Deserialize(cut).ok());
  }
  // Trailing garbage (payload size disagrees with the buffer) too.
  std::vector<std::uint8_t> grown = wire;
  grown.push_back(0);
  EXPECT_FALSE(ProgramSnapshot::Deserialize(grown).ok());
}

TEST(SnapshotTest, RejectsEveryBitFlipInHeaderAndSampledPayload) {
  const Built built = BuildProgram(SchemeKind::kDistributed, 120);
  const std::vector<std::uint8_t> wire =
      ProgramSnapshot::Serialize(built.arena);
  ASSERT_TRUE(ProgramSnapshot::Deserialize(wire).ok());
  // All header bytes, then a stride through the payload: a flip anywhere
  // must fail the checksum (or an earlier header check) — never load.
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < sizeof(SnapshotHeader); ++i) {
    positions.push_back(i);
  }
  for (std::size_t i = sizeof(SnapshotHeader); i < wire.size(); i += 97) {
    positions.push_back(i);
  }
  positions.push_back(wire.size() - 1);
  for (const std::size_t pos : positions) {
    SCOPED_TRACE("flip at byte " + std::to_string(pos));
    std::vector<std::uint8_t> corrupt = wire;
    corrupt[pos] ^= 0x20;
    EXPECT_FALSE(ProgramSnapshot::Deserialize(corrupt).ok());
  }
}

TEST(SnapshotTest, RejectsWrongMagicAndWrongVersion) {
  const Built built = BuildProgram(SchemeKind::kFlat, 64);
  std::vector<std::uint8_t> wire = ProgramSnapshot::Serialize(built.arena);

  SnapshotHeader header;
  std::memcpy(&header, wire.data(), sizeof(header));
  ASSERT_EQ(header.magic, ProgramSnapshot::kMagic);
  ASSERT_EQ(header.format_version, ProgramSnapshot::kFormatVersion);

  SnapshotHeader bad_magic = header;
  bad_magic.magic = 0x44414544u;
  std::memcpy(wire.data(), &bad_magic, sizeof(bad_magic));
  EXPECT_FALSE(ProgramSnapshot::Deserialize(wire).ok());

  SnapshotHeader bad_version = header;
  bad_version.format_version = ProgramSnapshot::kFormatVersion + 1;
  std::memcpy(wire.data(), &bad_version, sizeof(bad_version));
  EXPECT_FALSE(ProgramSnapshot::Deserialize(wire).ok());

  SnapshotHeader bad_size = header;
  bad_size.payload_bytes = header.payload_bytes + 8;
  std::memcpy(wire.data(), &bad_size, sizeof(bad_size));
  EXPECT_FALSE(ProgramSnapshot::Deserialize(wire).ok());

  // Restoring the true header loads again — the buffer itself is intact.
  std::memcpy(wire.data(), &header, sizeof(header));
  EXPECT_TRUE(ProgramSnapshot::Deserialize(wire).ok());
}

TEST(SnapshotTest, ArenaFromBytesRejectsCorruptSections) {
  const Built built = BuildProgram(SchemeKind::kSignature, 100);
  // A payload that passes the snapshot checksum can still be hostile
  // (hand-crafted file): FromBytes re-validates every offset.
  std::vector<std::uint8_t> raw = built.arena.bytes();
  ArenaHeader header;
  std::memcpy(&header, raw.data(), sizeof(header));
  header.strings_offset = header.total_bytes + 64;  // out of bounds
  std::memcpy(raw.data(), &header, sizeof(header));
  EXPECT_FALSE(ProgramArena::FromBytes(std::move(raw)).ok());

  std::vector<std::uint8_t> tiny(sizeof(ArenaHeader) - 4, 0);
  EXPECT_FALSE(ProgramArena::FromBytes(std::move(tiny)).ok());
}

TEST(SnapshotTest, LoadFileReportsNotFound) {
  auto missing =
      ProgramSnapshot::LoadFile(testing::TempDir() + "/no_such_snapshot.snap");
  ASSERT_FALSE(missing.ok());
}

TEST(SnapshotTest, WriteFileThenLoadFileRoundTrips) {
  const Built built = BuildProgram(SchemeKind::kHybrid, 90);
  const std::string path = testing::TempDir() + "/snapshot_test_hybrid.snap";
  ASSERT_TRUE(ProgramSnapshot::WriteFile(path, built.arena).ok());
  auto loaded = ProgramSnapshot::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().bytes(), built.arena.bytes());
  std::remove(path.c_str());
}

// The committed golden file pins the on-disk format: if Flatten's byte
// layout drifts without a version bump, this test fails first.
TEST(SnapshotTest, GoldenSnapshotLoadsAndMatchesRebuild) {
  const std::string path =
      std::string(AIRINDEX_TEST_DATA_DIR) + "/one_m_n64_v1.snap";
  const std::vector<std::uint8_t> wire = ReadAll(path);
  ASSERT_FALSE(wire.empty()) << "missing golden file " << path;

  auto loaded = ProgramSnapshot::Deserialize(wire);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().scheme_kind(),
            static_cast<int>(SchemeKind::kOneM));
  EXPECT_EQ(loaded.value().num_channels(), 1);

  // Rebuilding with the golden recipe reproduces the bytes exactly.
  const Built rebuilt = BuildProgram(SchemeKind::kOneM, 64);
  EXPECT_EQ(loaded.value().bytes(), rebuilt.arena.bytes());
  EXPECT_EQ(ProgramSnapshot::Serialize(rebuilt.arena), wire);

  // And the golden program restores to a queryable scheme.
  auto shared = std::make_shared<const ProgramArena>(std::move(loaded).value());
  auto restored = RestoreSchemeFromArena(shared, rebuilt.dataset,
                                         BucketGeometry{}, SchemeParams{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const AccessResult from_golden =
      restored.value()->Access(rebuilt.dataset->record(10).key, 0);
  const AccessResult from_build =
      rebuilt.scheme->Access(rebuilt.dataset->record(10).key, 0);
  EXPECT_TRUE(from_golden.found);
  EXPECT_EQ(from_golden.access_time, from_build.access_time);
  EXPECT_EQ(from_golden.tuning_time, from_build.tuning_time);
}

// Flatten's bytes for every scheme, not only the golden one_m n=64
// file: the round-trip tests above would pass a change that reorders
// string interning consistently on both sides. Each pin is a
// (Checksum, total_bytes) pair of format version 1; any drift in
// section layout, interning order or pad bytes moves the checksum. A
// deliberate format change bumps ProgramArena::kFormatVersion and
// re-captures the pins, as it regenerates the golden file.
struct FlattenPin {
  const char* label;
  std::uint64_t checksum;
  std::uint32_t total_bytes;
};

std::vector<std::pair<std::string, ProgramArena>> PinnedPrograms() {
  std::vector<std::pair<std::string, ProgramArena>> programs;
  for (const int n : {64, 2000}) {
    for (const SchemeKind kind : kAllSchemes) {
      programs.emplace_back(
          std::string(SchemeKindToString(kind)) + "/" + std::to_string(n),
          BuildProgram(kind, n).arena);
    }
  }
  DatasetConfig dataset_config;
  dataset_config.num_records = 2000;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(dataset_config).value());
  const BucketGeometry geometry;

  // Index-on-one multichannel: cross-channel pointers and a switch cost.
  MultiChannelParams multichannel;
  multichannel.num_channels = 3;
  multichannel.switch_cost_bytes = 500;
  multichannel.allocation = ChannelAllocation::kIndexOnOne;
  auto group = MultiChannelProgram::Build(SchemeKind::kOneM, dataset,
                                          geometry, SchemeParams{},
                                          multichannel)
                   .value();
  std::vector<const Channel*> channels;
  for (int c = 0; c < group->group().num_channels(); ++c) {
    channels.push_back(&group->group().channel(c));
  }
  programs.emplace_back(
      "multichannel index-on-one/2000",
      ProgramArena::Flatten(channels, multichannel.switch_cost_bytes,
                            static_cast<int>(SchemeKind::kOneM),
                            DatasetFingerprint(*dataset), 0, {}));

  // Square-root scheduled (1,m): aux carries the resolved assignment.
  SchemeParams scheduled;
  scheduled.schedule.scheduler = SchedulerKind::kSquareRoot;
  scheduled.schedule.num_disks = 3;
  scheduled.schedule.theta = 0.9;
  auto program =
      BuildScheme(SchemeKind::kOneM, dataset, geometry, scheduled).value();
  programs.emplace_back(
      "square-root scheduled (1,m)/2000",
      FlattenSchemeProgram(SchemeKind::kOneM, *program,
                           DatasetFingerprint(*dataset),
                           ProgramParamsFingerprint(SchemeKind::kOneM,
                                                    geometry, scheduled))
          .value());
  return programs;
}

TEST(SnapshotTest, FlattenChecksumsMatchParent) {
  constexpr FlattenPin kPins[] = {
      {"flat broadcast/64", 0xc91ba680e7ace22aull, 6752},
      {"(1,m) indexing/64", 0x3cb5bfe9e5b4b049ull, 19144},
      {"distributed indexing/64", 0x8754c08658e90297ull, 11888},
      {"simple hashing/64", 0x58c6945546bc80d9ull, 8736},
      {"signature indexing/64", 0x67e68095121a0fccull, 14432},
      {"integrated signature/64", 0xe540a6d3c586bf7dull, 7432},
      {"multi-level signature/64", 0x53511771c1b02effull, 15112},
      {"broadcast disks/64", 0x470a5b6137bce878ull, 10704},
      {"hybrid index+signature/64", 0xdd3de7735d1680f8ull, 15576},
      {"flat broadcast/2000", 0x61c3aa86e6a5e898ull, 208096},
      {"(1,m) indexing/2000", 0x097ab44a49f62350ull, 582520},
      {"distributed indexing/2000", 0x27de6b887b706278ull, 423960},
      {"simple hashing/2000", 0x9934e397d4230789ull, 284960},
      {"signature indexing/2000", 0xc550bcf629689c9aull, 448096},
      {"integrated signature/2000", 0xba2a4afa091e926aull, 229104},
      {"multi-level signature/2000", 0x6fa8b1cf2fd90125ull, 469104},
      {"broadcast disks/2000", 0x1f6f0516a293304cull, 332896},
      {"hybrid index+signature/2000", 0x324c54b816cee8d7ull, 532248},
      {"multichannel index-on-one/2000", 0xa3222da11abd898aull, 339216},
      {"square-root scheduled (1,m)/2000", 0xef1c8df2d3143929ull, 425712},
  };
  const auto programs = PinnedPrograms();
  ASSERT_EQ(programs.size(), std::size(kPins));
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const auto& [label, arena] = programs[i];
    SCOPED_TRACE(label);
    EXPECT_EQ(label, kPins[i].label);
    EXPECT_EQ(arena.Checksum(), kPins[i].checksum);
    EXPECT_EQ(arena.header().total_bytes, kPins[i].total_bytes);
    EXPECT_EQ(arena.bytes().size(), kPins[i].total_bytes);
  }
}

TEST(SnapshotTest, ProgramCacheMemoryOnly) {
  ProgramCache cache;  // no directory: memory-only
  DatasetConfig config;
  config.num_records = 150;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(config).value());
  const BucketGeometry geometry;
  const SchemeParams params;

  auto cold = cache.GetOrBuild(SchemeKind::kOneM, dataset, geometry, params);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = cache.GetOrBuild(SchemeKind::kOneM, dataset, geometry, params);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  const MetricsRegistry metrics = cache.MetricsSnapshot();
  EXPECT_EQ(metrics.Get("program.builds"), 1);
  EXPECT_EQ(metrics.Get("program.memory_hits"), 1);
  EXPECT_EQ(metrics.Get("program.snapshot_writes"), 0);
  EXPECT_TRUE(cache
                  .SnapshotPath(SchemeKind::kOneM, DatasetFingerprint(*dataset),
                                ProgramParamsFingerprint(SchemeKind::kOneM,
                                                         geometry, params))
                  .empty());

  // Cached scheme answers identically to a fresh build.
  auto fresh = BuildScheme(SchemeKind::kOneM, dataset, geometry, params);
  ASSERT_TRUE(fresh.ok());
  for (const int record : {0, 42, 149}) {
    const AccessResult a =
        warm.value()->Access(dataset->record(record).key, 500);
    const AccessResult b =
        fresh.value()->Access(dataset->record(record).key, 500);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.access_time, b.access_time);
    EXPECT_EQ(a.tuning_time, b.tuning_time);
    EXPECT_EQ(a.probes, b.probes);
  }
}

TEST(SnapshotTest, ProgramCacheWarmsFromDisk) {
  const std::string dir = testing::TempDir();
  DatasetConfig config;
  config.num_records = 130;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(config).value());
  const BucketGeometry geometry;
  const SchemeParams params;
  const std::uint64_t dfp = DatasetFingerprint(*dataset);
  const std::uint64_t pfp =
      ProgramParamsFingerprint(SchemeKind::kDistributed, geometry, params);

  std::string snapshot_path;
  {
    ProgramCache cold_cache(dir);
    snapshot_path = cold_cache.SnapshotPath(SchemeKind::kDistributed, dfp, pfp);
    ASSERT_FALSE(snapshot_path.empty());
    std::remove(snapshot_path.c_str());  // a prior run's file, if any

    auto cold = cold_cache.GetOrBuild(SchemeKind::kDistributed, dataset,
                                      geometry, params);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    const MetricsRegistry metrics = cold_cache.MetricsSnapshot();
    EXPECT_EQ(metrics.Get("program.builds"), 1);
    EXPECT_EQ(metrics.Get("program.snapshot_misses"), 1);
    EXPECT_EQ(metrics.Get("program.snapshot_writes"), 1);
  }

  // A later process (fresh cache instance, same directory) loads the
  // snapshot instead of rebuilding.
  ProgramCache warm_cache(dir);
  auto warm = warm_cache.GetOrBuild(SchemeKind::kDistributed, dataset,
                                    geometry, params);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const MetricsRegistry metrics = warm_cache.MetricsSnapshot();
  EXPECT_EQ(metrics.Get("program.builds"), 0);
  EXPECT_EQ(metrics.Get("program.snapshot_hits"), 1);

  // The warmed scheme is observably identical to a fresh build.
  auto fresh = BuildScheme(SchemeKind::kDistributed, dataset, geometry, params);
  ASSERT_TRUE(fresh.ok());
  for (const int record : {3, 77, 129}) {
    const AccessResult a =
        warm.value()->Access(dataset->record(record).key, 900);
    const AccessResult b =
        fresh.value()->Access(dataset->record(record).key, 900);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.access_time, b.access_time);
    EXPECT_EQ(a.tuning_time, b.tuning_time);
  }
  std::remove(snapshot_path.c_str());
}

TEST(SnapshotTest, ProgramCacheIgnoresCorruptSnapshot) {
  const std::string dir = testing::TempDir();
  DatasetConfig config;
  config.num_records = 80;
  auto dataset = std::make_shared<const Dataset>(
      Dataset::Generate(config).value());
  const BucketGeometry geometry;
  const SchemeParams params;
  const std::uint64_t dfp = DatasetFingerprint(*dataset);
  const std::uint64_t pfp =
      ProgramParamsFingerprint(SchemeKind::kHashing, geometry, params);

  ProgramCache seed_cache(dir);
  const std::string path = seed_cache.SnapshotPath(SchemeKind::kHashing, dfp,
                                                   pfp);
  std::remove(path.c_str());
  ASSERT_TRUE(
      seed_cache.GetOrBuild(SchemeKind::kHashing, dataset, geometry, params)
          .ok());

  // Flip one payload byte on disk: the next process must detect it,
  // count a miss, and rebuild rather than load garbage.
  std::vector<std::uint8_t> wire = ReadAll(path);
  ASSERT_GT(wire.size(), sizeof(SnapshotHeader));
  wire[wire.size() - 3] ^= 0x01;
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(wire.data(), 1, wire.size(), file), wire.size());
  std::fclose(file);

  ProgramCache cache(dir);
  auto result = cache.GetOrBuild(SchemeKind::kHashing, dataset, geometry,
                                 params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MetricsRegistry metrics = cache.MetricsSnapshot();
  EXPECT_EQ(metrics.Get("program.snapshot_hits"), 0);
  EXPECT_EQ(metrics.Get("program.builds"), 1);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ProgramCacheKeysOnDatasetContent) {
  ProgramCache cache;
  const BucketGeometry geometry;
  const SchemeParams params;
  DatasetConfig config;
  config.num_records = 60;
  auto a = std::make_shared<const Dataset>(Dataset::Generate(config).value());
  config.num_records = 61;
  auto b = std::make_shared<const Dataset>(Dataset::Generate(config).value());

  EXPECT_NE(DatasetFingerprint(*a), DatasetFingerprint(*b));
  ASSERT_TRUE(cache.GetOrBuild(SchemeKind::kFlat, a, geometry, params).ok());
  ASSERT_TRUE(cache.GetOrBuild(SchemeKind::kFlat, b, geometry, params).ok());
  EXPECT_EQ(cache.MetricsSnapshot().Get("program.builds"), 2);

  // Same dataset, different scheme params → different program key.
  SchemeParams other = params;
  other.one_m_m = 7;
  EXPECT_NE(ProgramParamsFingerprint(SchemeKind::kOneM, geometry, params),
            ProgramParamsFingerprint(SchemeKind::kOneM, geometry, other));
}

}  // namespace
}  // namespace airindex

// Unit and property tests for signature indexing: generator semantics,
// channel layout, fast-path vs reference equivalence across the sliced
// signature file's block edges, false drops.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "broadcast/arena.h"
#include "broadcast/channel.h"
#include "des/random.h"
#include "schemes/scheme.h"
#include "schemes/signature.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  config.num_attributes = 6;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 6;
  geometry.signature_bytes = 8;  // 64 bits: small enough to see false drops
  return geometry;
}

TEST(SignatureGenerator, QueryIsAlwaysContainedInOwnRecord) {
  const auto dataset = MakeDataset(200);
  SignatureParams params;
  params.bits_per_attribute = 6;
  const SignatureGenerator generator(SmallGeometry(), params);
  for (const Record& record : dataset->records()) {
    const auto record_sig = generator.RecordSignature(record);
    const auto query_sig = generator.QuerySignature(record.key);
    EXPECT_TRUE(SignatureGenerator::Matches(record_sig.data(),
                                            query_sig.data(),
                                            generator.words()));
  }
}

TEST(SignatureGenerator, DifferentKeysUsuallyDiffer) {
  const auto dataset = MakeDataset(100);
  const SignatureGenerator generator(SmallGeometry(), SignatureParams());
  int identical = 0;
  const auto first = generator.QuerySignature(dataset->record(0).key);
  for (int i = 1; i < 100; ++i) {
    if (generator.QuerySignature(dataset->record(i).key) == first) {
      ++identical;
    }
  }
  EXPECT_EQ(identical, 0);
}

TEST(SignatureGenerator, DeterministicAcrossInstances) {
  const SignatureGenerator a(SmallGeometry(), SignatureParams());
  const SignatureGenerator b(SmallGeometry(), SignatureParams());
  EXPECT_EQ(a.QuerySignature("hello"), b.QuerySignature("hello"));
}

TEST(Signature, ChannelAlternatesSignatureAndData) {
  const auto dataset = MakeDataset(50);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  const Channel& channel = scheme.channel();
  ASSERT_EQ(channel.num_buckets(), 100u);
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(channel.bucket(i).kind, BucketKind::kSignature);
      EXPECT_EQ(channel.bucket(i).size, 8);
    } else {
      EXPECT_EQ(channel.bucket(i).kind, BucketKind::kData);
      EXPECT_EQ(channel.bucket(i).size, 100);
    }
    EXPECT_EQ(channel.bucket(i).record_id,
              static_cast<std::int64_t>(i / 2));
  }
  EXPECT_TRUE(ValidateChannelStructure(channel).ok());
}

TEST(Signature, FindsEveryKey) {
  const auto dataset = MakeDataset(80);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  Rng rng(3);
  for (int r = 0; r < dataset->size(); ++r) {
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            2 * scheme.channel().cycle_bytes())));
    const AccessResult result = scheme.Access(dataset->record(r).key, tune_in);
    ASSERT_TRUE(result.found) << r;
  }
}

// The sliced signature file packs 64 records per word: record counts on
// both sides of the block edges, and signature widths whose bit counts
// are not multiples of 64 (9 and 24 bytes).
constexpr int kEdgeRecordCounts[] = {1, 2, 63, 64, 65, 127, 129, 1000};
constexpr Bytes kEdgeSignatureBytes[] = {4, 8, 9, 16, 24};

class SignatureEdgeTest
    : public ::testing::TestWithParam<std::tuple<int, Bytes>> {};

void ExpectSameAccess(const AccessResult& fast, const AccessResult& reference,
                      const std::string& context) {
  ASSERT_EQ(fast.found, reference.found) << context;
  ASSERT_EQ(fast.access_time, reference.access_time) << context;
  ASSERT_EQ(fast.tuning_time, reference.tuning_time) << context;
  ASSERT_EQ(fast.false_drops, reference.false_drops) << context;
  ASSERT_EQ(fast.probes, reference.probes) << context;
}

// Access equals the bucket-by-bucket reference on the built scheme and on
// a scheme restored from its flattened arena.
TEST_P(SignatureEdgeTest, FastPathEqualsReferenceEverywhere) {
  const auto [n, signature_bytes] = GetParam();
  const auto dataset = MakeDataset(n);
  BucketGeometry geometry = SmallGeometry();
  geometry.signature_bytes = signature_bytes;
  SchemeParams params;
  params.signature_bits_per_attribute = 4;
  auto built = BuildScheme(SchemeKind::kSignature, dataset, geometry, params);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& scheme =
      dynamic_cast<const SignatureIndexing&>(*built.value());
  auto arena = FlattenSchemeProgram(SchemeKind::kSignature, scheme, 0, 0);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  auto restored = RestoreSchemeFromArena(
      std::make_shared<const ProgramArena>(std::move(arena).value()),
      dataset, geometry, params);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const Bytes cycle = scheme.channel().cycle_bytes();
  const Bytes period = cycle / n;
  Rng rng(2025);
  for (int trial = 0; trial < 400; ++trial) {
    // Random tune-ins over three cycles, plus ones that start exactly on
    // a pair or just before the cycle wraps.
    Bytes tune_in = static_cast<Bytes>(
        rng.NextBounded(static_cast<std::uint64_t>(3 * cycle)));
    if (trial % 4 == 1) {
      tune_in = period * static_cast<Bytes>(rng.NextBounded(
                             static_cast<std::uint64_t>(2 * n)));
    } else if (trial % 4 == 2) {
      tune_in = cycle - 1 -
                static_cast<Bytes>(rng.NextBounded(
                    static_cast<std::uint64_t>(std::min(2 * period, cycle))));
    }
    const bool present = trial % 2 == 0;
    const std::string key =
        present ? dataset->record(static_cast<int>(rng.NextBounded(
                                      static_cast<std::uint64_t>(n))))
                      .key
                : dataset->AbsentKey(static_cast<int>(
                      rng.NextBounded(static_cast<std::uint64_t>(n + 1))));
    const std::string context = key + " @" + std::to_string(tune_in);
    const AccessResult reference = scheme.AccessReference(key, tune_in);
    ExpectSameAccess(scheme.Access(key, tune_in), reference,
                     "built " + context);
    ExpectSameAccess(restored.value()->Access(key, tune_in), reference,
                     "restored " + context);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockEdges, SignatureEdgeTest,
    ::testing::Combine(::testing::ValuesIn(kEdgeRecordCounts),
                       ::testing::ValuesIn(kEdgeSignatureBytes)),
    [](const ::testing::TestParamInfo<std::tuple<int, Bytes>>& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_sig";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(Signature, ExactTimesOnTinyChannel) {
  const auto dataset = MakeDataset(4);
  BucketGeometry geometry = SmallGeometry();
  geometry.signature_bytes = 64;  // huge signatures: no false drops
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, geometry).value();
  // Tune in at cycle start asking for record 2: sift sigs 0,1 (dozing
  // over data), then sig 2 + download.
  const AccessResult result = scheme.Access(dataset->record(2).key, 0);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.false_drops, 0);
  EXPECT_EQ(result.tuning_time, 3 * 64 + 100);
  EXPECT_EQ(result.access_time, 3 * (64 + 100));
}

TEST(Signature, AbsentKeySiftsWholeCycle) {
  const auto dataset = MakeDataset(30);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  const AccessResult result = scheme.Access(dataset->AbsentKey(10), 5);
  EXPECT_FALSE(result.found);
  // All 30 signatures are read.
  EXPECT_GE(result.probes, 30);
  EXPECT_GE(result.tuning_time, 30 * 8);
}

TEST(Signature, SmallerSignaturesDropMore) {
  const auto dataset = MakeDataset(2000);
  BucketGeometry tiny = SmallGeometry();
  tiny.signature_bytes = 4;  // 32 bits
  BucketGeometry roomy = SmallGeometry();
  roomy.signature_bytes = 32;  // 256 bits
  SignatureParams params;
  params.bits_per_attribute = 4;
  const SignatureIndexing small =
      SignatureIndexing::Build(dataset, tiny, params).value();
  const SignatureIndexing large =
      SignatureIndexing::Build(dataset, roomy, params).value();
  const double rate_small = small.MeasureFalseDropRate(50, 1);
  const double rate_large = large.MeasureFalseDropRate(50, 1);
  EXPECT_GT(rate_small, rate_large);
  EXPECT_GT(rate_small, 0.0);
}

// The per-record false-drop rate: a plain loop over every record's
// signature agrees with the sliced count, and the values are pinned.
TEST(Signature, FalseDropRateMatchesPerRecordLoop) {
  const auto dataset = MakeDataset(2000);
  SignatureParams params;
  params.bits_per_attribute = 4;
  const struct {
    Bytes signature_bytes;
    std::int64_t drops;  // over 50 queries × 1999 other records
  } cases[] = {{4, 11704}, {9, 1155}, {32, 11}};
  for (const auto& c : cases) {
    BucketGeometry geometry = SmallGeometry();
    geometry.signature_bytes = c.signature_bytes;
    const SignatureIndexing scheme =
        SignatureIndexing::Build(dataset, geometry, params).value();
    const SignatureGenerator& generator = scheme.generator();
    Rng rng(1);
    std::int64_t drops = 0;
    for (int q = 0; q < 50; ++q) {
      const int target = static_cast<int>(rng.NextBounded(2000));
      const auto query = generator.QuerySignature(dataset->record(target).key);
      for (const Record& record : dataset->records()) {
        if (SignatureGenerator::Matches(generator.RecordSignature(record).data(),
                                        query.data(), generator.words())) {
          ++drops;
        }
      }
      --drops;  // the target itself
    }
    EXPECT_EQ(drops, c.drops) << c.signature_bytes;
    EXPECT_EQ(scheme.MeasureFalseDropRate(50, 1),
              static_cast<double>(c.drops) / (50.0 * 1999.0))
        << c.signature_bytes;
  }
}

TEST(Signature, RejectsBadParams) {
  const auto dataset = MakeDataset(10);
  const Channel channel =
      SignatureIndexing::Build(dataset, SmallGeometry()).value().channel();
  const auto arena = std::make_shared<const ProgramArena>(
      ProgramArena::Flatten({&channel}, 0, -1, 0, 0, {}));
  const auto rejects = [&](const BucketGeometry& geometry,
                           const SignatureParams& params) {
    EXPECT_FALSE(SignatureIndexing::Build(dataset, geometry, params).ok());
    EXPECT_FALSE(
        SignatureIndexing::Restore(dataset, geometry, params, channel, arena)
            .ok());
  };
  BucketGeometry geometry = SmallGeometry();
  geometry.signature_bytes = 0;
  rejects(geometry, SignatureParams());
  geometry = SmallGeometry();
  SignatureParams params;
  params.bits_per_attribute = 0;
  rejects(geometry, params);
  params.bits_per_attribute = 10000;
  rejects(geometry, params);
  // The widest legal weight is accepted by both.
  params.bits_per_attribute = 64;
  EXPECT_TRUE(SignatureIndexing::Build(dataset, geometry, params).ok());
  EXPECT_TRUE(
      SignatureIndexing::Restore(dataset, geometry, params, channel, arena)
          .ok());
}

}  // namespace
}  // namespace airindex

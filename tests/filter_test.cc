// Tests for attribute filtering (signature schemes vs the flat baseline
// and vs a per-record loop) and the channel describe utility.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "broadcast/describe.h"
#include "des/random.h"
#include "schemes/flat.h"
#include "schemes/signature.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  config.num_attributes = 4;
  config.attribute_width = 3;  // narrow: attribute values repeat
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 100;
  geometry.key_bytes = 6;
  geometry.signature_bytes = 16;
  return geometry;
}

TEST(Filter, DatasetGroundTruth) {
  const auto dataset = MakeDataset(500);
  const std::string value = dataset->record(42).attributes[1];
  const std::vector<int> matches = dataset->FindByAttribute(value);
  // Record 42 itself must be in the list; 3-char pseudo-words repeat, so
  // typically others carry it too.
  EXPECT_NE(std::find(matches.begin(), matches.end(), 42), matches.end());
  for (const int m : matches) {
    bool carries = false;
    for (const std::string& attribute : dataset->record(m).attributes) {
      carries = carries || attribute == value;
    }
    EXPECT_TRUE(carries) << m;
  }
  EXPECT_TRUE(dataset->FindByAttribute("zzz-not-there").empty());
}

TEST(Filter, SignatureFindsExactlyTheCarriers) {
  const auto dataset = MakeDataset(400);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const int record = static_cast<int>(rng.NextBounded(400));
    const int attr = static_cast<int>(rng.NextBounded(4));
    const std::string value = dataset->record(record).attributes[
        static_cast<std::size_t>(attr)];
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(100000));
    const FilterResult result = scheme.Filter(value, tune_in);
    EXPECT_EQ(result.matches, dataset->FindByAttribute(value));
    EXPECT_GE(result.false_drops, 0);
    EXPECT_LE(result.tuning_time, result.access_time);
  }
}

TEST(Filter, SignatureTunesFarLessThanFlat) {
  const auto dataset = MakeDataset(400);
  const BucketGeometry geometry = SmallGeometry();
  const SignatureIndexing signature =
      SignatureIndexing::Build(dataset, geometry).value();
  const FlatBroadcast flat = FlatBroadcast::Build(dataset, geometry).value();
  const std::string value = dataset->record(7).attributes[0];
  const FilterResult sig_result = signature.Filter(value, 1234);
  const FilterResult flat_result = flat.Filter(value, 1234);
  EXPECT_EQ(sig_result.matches, flat_result.matches);
  // Flat listens to the whole cycle; signatures sift.
  EXPECT_LT(sig_result.tuning_time, flat_result.tuning_time / 3);
  EXPECT_EQ(flat_result.tuning_time, flat_result.access_time);
}

TEST(Filter, AbsentValueYieldsOnlyFalseDrops) {
  const auto dataset = MakeDataset(300);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  const FilterResult result = scheme.Filter("zq!", 0);
  EXPECT_TRUE(result.matches.empty());
  // All signature buckets were still sifted.
  EXPECT_GE(result.probes, 300);
}

TEST(Filter, AccessCoversOneCycle) {
  const auto dataset = MakeDataset(100);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  const FilterResult result =
      scheme.Filter(dataset->record(0).attributes[0], 0);
  const Bytes cycle = scheme.channel().cycle_bytes();
  EXPECT_GE(result.access_time, cycle - 100 - 16);
  EXPECT_LE(result.access_time, cycle + 116);
}

// Filter as a plain per-record loop: walk the channel pair by pair from
// the first complete signature bucket, regenerate each record's
// signature and download the data bucket whenever it matches.
// `last_pair_downloaded` reports whether the pass ended on a download.
FilterResult FilterPerRecord(const SignatureIndexing& scheme,
                             const Dataset& dataset, std::string_view value,
                             Bytes tune_in, bool* last_pair_downloaded) {
  const Channel& channel = scheme.channel();
  const SignatureGenerator& generator = scheme.generator();
  const std::vector<std::uint64_t> query = generator.QuerySignature(value);
  const Bytes cycle = channel.cycle_bytes();
  const std::size_t num_buckets = channel.num_buckets();

  Bytes t = tune_in;
  std::size_t i = channel.BucketAtPhase(t % cycle);
  if (channel.start_phase(i) != t % cycle ||
      channel.bucket(i).kind != BucketKind::kSignature) {
    do {
      i = (i + 1) % num_buckets;
    } while (channel.bucket(i).kind != BucketKind::kSignature);
    t = channel.NextArrivalOfPhase(channel.start_phase(i), t);
  }
  FilterResult result;
  result.tuning_time = t - tune_in;
  for (int scanned = 0; scanned < dataset.size(); ++scanned) {
    const Bucket& sig_bucket = channel.bucket(i);
    const Bucket& data_bucket = channel.bucket((i + 1) % num_buckets);
    const Record& record =
        dataset.record(static_cast<int>(sig_bucket.record_id));
    t += sig_bucket.size;
    result.tuning_time += sig_bucket.size;
    ++result.probes;
    const bool match = SignatureGenerator::Matches(
        generator.RecordSignature(record).data(), query.data(),
        generator.words());
    if (match) {
      t += data_bucket.size;
      result.tuning_time += data_bucket.size;
      ++result.probes;
      const auto& attributes = record.attributes;
      if (std::find(attributes.begin(), attributes.end(), value) !=
          attributes.end()) {
        result.matches.push_back(static_cast<int>(sig_bucket.record_id));
      } else {
        ++result.false_drops;
      }
    } else if (scanned + 1 < dataset.size()) {
      t += data_bucket.size;  // doze to the next signature
    }
    *last_pair_downloaded = match;
    i = (i + 2) % num_buckets;
  }
  result.access_time = t - tune_in;
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

TEST(Filter, SignatureEqualsPerRecordLoop) {
  int last_pair_downloads = 0;
  for (const int n : {1, 2, 63, 64, 65, 127, 129, 1000}) {
    for (const Bytes signature_bytes : {9, 16}) {
      const auto dataset = MakeDataset(n);
      BucketGeometry geometry = SmallGeometry();
      geometry.signature_bytes = signature_bytes;
      const SignatureIndexing scheme =
          SignatureIndexing::Build(dataset, geometry).value();
      const Bytes cycle = scheme.channel().cycle_bytes();
      const Bytes period = cycle / n;
      Rng rng(static_cast<std::uint64_t>(n));
      for (int trial = 0; trial < 12; ++trial) {
        const int record =
            static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n)));
        const std::string value =
            trial == 0 ? std::string("zq!")
                       : dataset->record(record).attributes[
                             rng.NextBounded(4)];
        // Start phases: on the pair after the carrier (so the pass ends
        // on it), mid-pair, at the cycle start, just before the wrap, and
        // anywhere in a later cycle.
        const Bytes tune_ins[] = {
            static_cast<Bytes>((record + 1) % n) * period,
            static_cast<Bytes>(record) * period + period / 2,
            0,
            cycle - 1,
            static_cast<Bytes>(
                rng.NextBounded(static_cast<std::uint64_t>(3 * cycle))),
        };
        for (const Bytes tune_in : tune_ins) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " sig=" << signature_bytes
                       << " value=" << value << " @" << tune_in);
          bool last_pair_downloaded = false;
          const FilterResult expected = FilterPerRecord(
              scheme, *dataset, value, tune_in, &last_pair_downloaded);
          const FilterResult result = scheme.Filter(value, tune_in);
          EXPECT_EQ(result.matches, expected.matches);
          EXPECT_EQ(result.false_drops, expected.false_drops);
          EXPECT_EQ(result.probes, expected.probes);
          EXPECT_EQ(result.access_time, expected.access_time);
          EXPECT_EQ(result.tuning_time, expected.tuning_time);
          if (last_pair_downloaded) ++last_pair_downloads;
        }
      }
    }
  }
  EXPECT_GT(last_pair_downloads, 0);
}

TEST(Describe, PrintsBucketSummaries) {
  const auto dataset = MakeDataset(10);
  const SignatureIndexing scheme =
      SignatureIndexing::Build(dataset, SmallGeometry()).value();
  std::ostringstream out;
  DescribeChannel(scheme.channel(), out, 4);
  const std::string text = out.str();
  EXPECT_NE(text.find("cycle: 20 buckets"), std::string::npos);
  EXPECT_NE(text.find("signature"), std::string::npos);
  EXPECT_NE(text.find("... (16 more buckets)"), std::string::npos);
}

}  // namespace
}  // namespace airindex

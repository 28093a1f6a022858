// Unit tests for the synthetic dictionary data source.

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"

namespace airindex {
namespace {

TEST(EncodeKey, OrderPreserving) {
  std::string previous;
  for (std::uint64_t code = 0; code < 2000; ++code) {
    const std::string key = EncodeKey(code, 5);
    ASSERT_EQ(key.size(), 5u);
    EXPECT_LT(previous, key);
    previous = key;
  }
}

TEST(EncodeKey, WidthTooSmallIsEmpty) {
  EXPECT_EQ(EncodeKey(26, 1), "");
  EXPECT_EQ(EncodeKey(25, 1), "z");
  EXPECT_EQ(EncodeKey(0, 3), "aaa");
}

TEST(Dataset, GeneratesSortedUniqueKeys) {
  DatasetConfig config;
  config.num_records = 500;
  config.key_width = 6;
  const Result<Dataset> result = Dataset::Generate(config);
  ASSERT_TRUE(result.ok());
  const Dataset& dataset = result.value();
  ASSERT_EQ(dataset.size(), 500);
  std::set<std::string> keys;
  std::string previous;
  for (const Record& record : dataset.records()) {
    EXPECT_EQ(record.key.size(), 6u);
    EXPECT_LT(previous, record.key);
    previous = record.key;
    keys.insert(record.key);
  }
  EXPECT_EQ(keys.size(), 500u);
}

TEST(Dataset, RecordIdsAreDenseInKeyOrder) {
  DatasetConfig config;
  config.num_records = 100;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  for (int i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(dataset.record(i).id, static_cast<std::uint64_t>(i));
  }
}

TEST(Dataset, FindIndexRoundTrips) {
  DatasetConfig config;
  config.num_records = 300;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  for (int i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(dataset.FindIndex(dataset.record(i).key), i);
  }
  EXPECT_EQ(dataset.FindIndex("zzzzzz"), -1);
  EXPECT_EQ(dataset.FindIndex(""), -1);
}

TEST(Dataset, AbsentKeysInterleaveAndNeverCollide) {
  DatasetConfig config;
  config.num_records = 200;
  config.key_width = 6;
  const Dataset dataset = Dataset::Generate(config).value();
  for (int i = 0; i <= dataset.size(); ++i) {
    const std::string absent = dataset.AbsentKey(i);
    EXPECT_EQ(dataset.FindIndex(absent), -1) << absent;
    if (i < dataset.size()) {
      EXPECT_LT(absent, dataset.record(i).key);
    }
    if (i > 0) {
      EXPECT_GT(absent, dataset.record(i - 1).key);
    }
  }
}

TEST(Dataset, AttributesAreDeterministicPerSeed) {
  DatasetConfig config;
  config.num_records = 50;
  config.key_width = 6;
  config.seed = 99;
  const Dataset a = Dataset::Generate(config).value();
  const Dataset b = Dataset::Generate(config).value();
  config.seed = 100;
  const Dataset c = Dataset::Generate(config).value();
  ASSERT_EQ(a.record(7).attributes.size(), 8u);
  EXPECT_EQ(a.record(7).attributes, b.record(7).attributes);
  EXPECT_NE(a.record(7).attributes, c.record(7).attributes);
  for (const std::string& attr : a.record(7).attributes) {
    EXPECT_EQ(attr.size(), 8u);
  }
}

TEST(Dataset, RejectsBadConfigs) {
  DatasetConfig config;
  config.num_records = 0;
  EXPECT_FALSE(Dataset::Generate(config).ok());
  config.num_records = 10;
  config.key_width = 0;
  EXPECT_FALSE(Dataset::Generate(config).ok());
  config.key_width = 1;  // 10 records (codes up to 20) fit in base-26
  EXPECT_TRUE(Dataset::Generate(config).ok());
  config.num_records = 20;  // codes up to 40 do not fit in one character
  EXPECT_FALSE(Dataset::Generate(config).ok());
  config.key_width = 6;
  config.key_width = 6;
  config.attribute_width = 0;
  EXPECT_FALSE(Dataset::Generate(config).ok());
}

TEST(Dataset, PaperScaleGenerates) {
  DatasetConfig config;
  config.num_records = 34000;
  config.key_width = 25;
  const Result<Dataset> result = Dataset::Generate(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 34000);
  EXPECT_LT(result.value().min_key(), result.value().max_key());
}

// FromRecords skips its sort when the input is already in key order
// (compaction's live records always are). Both paths must yield the
// same dataset — records, ids, config and every interned absent key —
// and both must refuse a repeated key.
TEST(Dataset, FromRecordsSortedEqualsShuffled) {
  std::vector<Record> sorted;
  for (int i = 0; i < 40; ++i) {
    Record record;
    // Mixed widths: "k0".."k9", then "k10".., and a few longer keys.
    const std::string n = std::to_string(i);
    record.key = std::string("k").append(n).append(i % 7 == 0 ? "tail" : "");
    record.attributes = {std::string("a").append(n),
                         std::string("b").append(std::to_string(i % 3))};
    sorted.push_back(std::move(record));
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  std::vector<Record> shuffled = sorted;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  ASSERT_FALSE(std::is_sorted(
      shuffled.begin(), shuffled.end(),
      [](const Record& a, const Record& b) { return a.key < b.key; }));

  const Dataset a = Dataset::FromRecords(sorted).value();
  const Dataset b = Dataset::FromRecords(shuffled).value();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.config().key_width, b.config().key_width);
  EXPECT_EQ(a.config().num_attributes, b.config().num_attributes);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.record(i).id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(b.record(i).id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(a.record(i).key, b.record(i).key);
    EXPECT_EQ(a.record(i).attributes, b.record(i).attributes);
  }
  EXPECT_EQ(a.absent_key(0), "!");
  for (int i = 0; i <= a.size(); ++i) {
    EXPECT_EQ(a.absent_key(i), b.absent_key(i)) << i;
    EXPECT_EQ(a.AbsentKey(i), std::string(a.absent_key(i)));
    if (i > 0) {
      EXPECT_EQ(a.absent_key(i), a.record(i - 1).key + "!");
    }
  }

  // A copy owns its absent-key table: same keys, separate storage.
  const Dataset copy = a;
  EXPECT_EQ(copy.absent_key(5), a.absent_key(5));
  EXPECT_NE(copy.absent_key(5).data(), a.absent_key(5).data());

  std::vector<Record> sorted_duplicate = sorted;
  sorted_duplicate.insert(sorted_duplicate.begin() + 10, sorted[10]);
  EXPECT_FALSE(Dataset::FromRecords(sorted_duplicate).ok());
  std::vector<Record> shuffled_duplicate = shuffled;
  shuffled_duplicate.push_back(shuffled.front());
  EXPECT_FALSE(Dataset::FromRecords(shuffled_duplicate).ok());
}

}  // namespace
}  // namespace airindex

// Parameterized property sweeps across every scheme and a grid of
// dataset/geometry configurations:
//
//  P1. every present key is found from arbitrary tune-in times;
//  P2. absent keys are never "found";
//  P3. tuning time never exceeds access time;
//  P4. no protocol anomalies on any well-formed channel;
//  P5. channels pass structural validation;
//  P6. access times are bounded by three broadcast cycles;
//  P7. simulated means track the analytical models (for the schemes the
//      paper models).

#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "analytical/models.h"
#include "broadcast/channel.h"
#include "core/experiment.h"
#include "core/simulator.h"
#include "des/random.h"
#include "schemes/scheme.h"

namespace airindex {
namespace {

struct PropertyCase {
  SchemeKind scheme;
  int num_records;
  Bytes record_bytes;
  Bytes key_bytes;
};

std::string CaseName(const testing::TestParamInfo<PropertyCase>& info) {
  std::string name = SchemeKindToString(info.param.scheme);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_n" + std::to_string(info.param.num_records) + "_d" +
         std::to_string(info.param.record_bytes) + "_k" +
         std::to_string(info.param.key_bytes);
}

class SchemePropertyTest : public testing::TestWithParam<PropertyCase> {
 protected:
  void SetUp() override {
    const PropertyCase& param = GetParam();
    if (param.scheme == SchemeKind::kBroadcastDisks &&
        param.num_records < 3) {
      GTEST_SKIP() << "broadcast disks need one record per disk";
    }
    geometry_.record_bytes = param.record_bytes;
    geometry_.key_bytes = param.key_bytes;
    DatasetConfig config;
    config.num_records = param.num_records;
    config.key_width = static_cast<int>(param.key_bytes);
    dataset_ = std::make_shared<const Dataset>(
        Dataset::Generate(config).value());
    auto scheme = BuildScheme(param.scheme, dataset_, geometry_);
    ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
    scheme_ = std::move(scheme).value();
  }

  BucketGeometry geometry_;
  std::shared_ptr<const Dataset> dataset_;
  std::unique_ptr<BroadcastScheme> scheme_;
};

TEST_P(SchemePropertyTest, ChannelIsStructurallyValid) {
  EXPECT_TRUE(ValidateChannelStructure(scheme_->channel()).ok());
  // Hashing pads the cycle with empty slots and broadcast disks repeat
  // hot records; every other scheme carries exactly one data bucket per
  // record.
  if (GetParam().scheme == SchemeKind::kHashing ||
      GetParam().scheme == SchemeKind::kBroadcastDisks) {
    EXPECT_GE(scheme_->channel().num_data_buckets(),
              static_cast<std::size_t>(dataset_->size()));
  } else {
    EXPECT_EQ(scheme_->channel().num_data_buckets(),
              static_cast<std::size_t>(dataset_->size()));
  }
}

TEST_P(SchemePropertyTest, EveryPresentKeyIsFound) {
  Rng rng(1234);
  const Bytes cycle = scheme_->channel().cycle_bytes();
  for (int r = 0; r < dataset_->size(); ++r) {
    const Bytes tune_in = static_cast<Bytes>(
        rng.NextBounded(static_cast<std::uint64_t>(2 * cycle)));
    const AccessResult result =
        scheme_->Access(dataset_->record(r).key, tune_in);
    ASSERT_TRUE(result.found) << "record " << r << " tune_in " << tune_in;
    ASSERT_EQ(result.anomalies, 0);
    ASSERT_LE(result.tuning_time, result.access_time);
    ASSERT_GT(result.tuning_time, 0);
    // A present key is always found within three broadcast cycles
    // (initial wait + index-segment probe + possible restart + descent).
    ASSERT_LE(result.access_time, 3 * cycle);
  }
}

TEST_P(SchemePropertyTest, AbsentKeysAreNeverFound) {
  Rng rng(4321);
  const Bytes cycle = scheme_->channel().cycle_bytes();
  for (int i = 0; i <= dataset_->size(); i += 3) {
    const Bytes tune_in = static_cast<Bytes>(
        rng.NextBounded(static_cast<std::uint64_t>(2 * cycle)));
    const AccessResult result =
        scheme_->Access(dataset_->AbsentKey(i), tune_in);
    ASSERT_FALSE(result.found) << "absent " << i;
    ASSERT_EQ(result.anomalies, 0);
    ASSERT_LE(result.tuning_time, result.access_time);
    ASSERT_LE(result.access_time, 3 * cycle);
  }
}

TEST_P(SchemePropertyTest, AccessIsDeterministic) {
  Rng rng(555);
  for (int trial = 0; trial < 50; ++trial) {
    const int r = static_cast<int>(rng.NextBounded(
        static_cast<std::uint64_t>(dataset_->size())));
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(1000000));
    const AccessResult a = scheme_->Access(dataset_->record(r).key, tune_in);
    const AccessResult b = scheme_->Access(dataset_->record(r).key, tune_in);
    ASSERT_EQ(a.access_time, b.access_time);
    ASSERT_EQ(a.tuning_time, b.tuning_time);
    ASSERT_EQ(a.probes, b.probes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemePropertyTest,
    testing::ValuesIn([] {
      std::vector<PropertyCase> cases;
      for (const SchemeKind scheme :
           {SchemeKind::kFlat, SchemeKind::kOneM, SchemeKind::kDistributed,
            SchemeKind::kHashing, SchemeKind::kSignature,
            SchemeKind::kIntegratedSignature,
            SchemeKind::kMultiLevelSignature, SchemeKind::kBroadcastDisks,
            SchemeKind::kHybrid}) {
        for (const auto& [records, record_bytes, key_bytes] :
             {std::tuple<int, Bytes, Bytes>{1, 100, 8},
              {7, 100, 8},
              {64, 100, 8},
              {513, 100, 8},
              {200, 500, 25},
              {200, 500, 100},   // record/key ratio 5
              {200, 500, 5}}) {  // record/key ratio 100
          cases.push_back(PropertyCase{scheme, records, record_bytes,
                                       key_bytes});
        }
      }
      return cases;
    }()),
    CaseName);

// P7: the simulation tracks the analytical models of Section 2.
struct ModelTrackingCase {
  SchemeKind scheme;
  int num_records;
  double access_tolerance;  // relative
};

class ModelTrackingTest : public testing::TestWithParam<ModelTrackingCase> {};

TEST_P(ModelTrackingTest, SimulatedAccessMatchesModel) {
  const ModelTrackingCase& param = GetParam();
  TestbedConfig config;
  config.scheme = param.scheme;
  config.num_records = param.num_records;
  config.min_rounds = 20;
  config.max_rounds = 60;
  const SimulationResult sim = RunTestbed(config).value();

  AnalyticalEstimate model;
  switch (param.scheme) {
    case SchemeKind::kFlat:
      model = FlatModel(param.num_records, config.geometry);
      break;
    case SchemeKind::kOneM:
      model = OneMModelExact(
          param.num_records, config.geometry,
          OneMOptimalMExact(param.num_records, config.geometry));
      break;
    case SchemeKind::kDistributed:
      model = DistributedModelExact(
          param.num_records, config.geometry,
          DistributedOptimalRExact(param.num_records, config.geometry));
      break;
    case SchemeKind::kHashing:
      model = HashingModel(
          param.num_records, param.num_records,
          static_cast<int>(
              ExpectedHashCollisions(param.num_records, param.num_records)),
          config.geometry);
      break;
    case SchemeKind::kSignature:
      model = SignatureModel(
          param.num_records, config.geometry,
          TheoreticalFalseDropRate(config.geometry, 8, 8));
      break;
    default:
      GTEST_SKIP();
  }
  EXPECT_NEAR(sim.access.mean() / model.access_time, 1.0,
              param.access_tolerance)
      << "sim " << sim.access.mean() << " model " << model.access_time;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSchemes, ModelTrackingTest,
    testing::Values(ModelTrackingCase{SchemeKind::kFlat, 3000, 0.05},
                    ModelTrackingCase{SchemeKind::kOneM, 3000, 0.10},
                    ModelTrackingCase{SchemeKind::kDistributed, 3000, 0.10},
                    ModelTrackingCase{SchemeKind::kHashing, 3000, 0.10},
                    ModelTrackingCase{SchemeKind::kSignature, 3000, 0.05}),
    [](const testing::TestParamInfo<ModelTrackingCase>& info) {
      std::string name = SchemeKindToString(info.param.scheme);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace airindex

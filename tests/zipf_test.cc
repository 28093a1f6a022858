// Unit tests for the Zipf request-popularity sampler: shape and ratio
// checks, exactness of the guide-table lookup against a binary search,
// a chi-square goodness-of-fit gate across skews, and the shared-table
// identity that lets the replication engine hoist one
// ZipfDistribution across a sweep cell (see Experiment::ZipfFor).

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/simulator.h"
#include "core/testbed_config.h"
#include "des/random.h"
#include "des/zipf.h"

namespace airindex {
namespace {

TEST(Zipf, ThetaZeroIsUniform) {
  const ZipfDistribution zipf(10, 0.0);
  for (int k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.Probability(k), 0.1, 1e-12);
  }
}

TEST(Zipf, ProbabilitiesSumToOneAndDecrease) {
  const ZipfDistribution zipf(1000, 0.9);
  double total = 0.0;
  double previous = 1.0;
  for (int k = 0; k < 1000; ++k) {
    const double p = zipf.Probability(k);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, previous + 1e-15);
    previous = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(zipf.Probability(-1), 0.0);
  EXPECT_EQ(zipf.Probability(1000), 0.0);
}

TEST(Zipf, ClassicRatios) {
  // P(rank 0) / P(rank 1) = 2^theta.
  const ZipfDistribution zipf(100, 1.0);
  EXPECT_NEAR(zipf.Probability(0) / zipf.Probability(1), 2.0, 1e-9);
  EXPECT_NEAR(zipf.Probability(0) / zipf.Probability(9), 10.0, 1e-9);
}

TEST(Zipf, SamplingMatchesProbabilities) {
  const ZipfDistribution zipf(50, 0.8);
  Rng rng(11);
  std::vector<int> counts(50, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const int k = zipf.Sample(&rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 50);
    ++counts[static_cast<std::size_t>(k)];
  }
  for (int k = 0; k < 50; ++k) {
    const double expected = zipf.Probability(k) * kDraws;
    EXPECT_NEAR(counts[static_cast<std::size_t>(k)], expected,
                5.0 * std::sqrt(expected) + 5.0)
        << "rank " << k;
  }
}

// The cumulative table exactly as ZipfDistribution's constructor builds
// it; std::lower_bound over it is the reference inverse CDF.
std::vector<double> ReferenceCumulative(int n, double theta) {
  std::vector<double> cumulative(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cumulative[static_cast<std::size_t>(k)] = total;
  }
  for (double& c : cumulative) c /= total;
  cumulative.back() = 1.0;
  return cumulative;
}

TEST(Zipf, RankEqualsLowerBound) {
  for (const int n : {1, 2, 3, 1023, 1024, 1025, 2000, 4000, 34000}) {
    for (const double theta : {0.0, 0.7, 0.9, 1.2}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", theta " + std::to_string(theta));
      const ZipfDistribution zipf(n, theta);
      const std::vector<double> cumulative = ReferenceCumulative(n, theta);
      const auto oracle = [&cumulative](double u) {
        const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
        return static_cast<int>(it - cumulative.begin());
      };
      std::vector<double> probes;
      // Every guide boundary j/M ...
      const std::size_t guide = std::bit_ceil(static_cast<std::size_t>(n));
      for (std::size_t j = 0; j < guide; ++j) {
        probes.push_back(static_cast<double>(j) / static_cast<double>(guide));
      }
      // ... every cumulative value and its neighbours below 1 ...
      for (const double c : cumulative) {
        for (const double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 1.0)}) {
          if (u >= 0.0 && u < 1.0) probes.push_back(u);
        }
      }
      for (const double u : probes) {
        ASSERT_EQ(zipf.Rank(u), oracle(u)) << "u " << u;
      }
      // ... and seeded draws, through Sample's own NextDouble.
      Rng rng(20261017);
      Rng mirror(20261017);
      for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(zipf.Sample(&rng), oracle(mirror.NextDouble())) << "draw " << i;
      }
    }
  }
}

TEST(Zipf, SingleRank) {
  const ZipfDistribution zipf(1, 1.2);
  Rng rng(1);
  EXPECT_EQ(zipf.Sample(&rng), 0);
  EXPECT_NEAR(zipf.Probability(0), 1.0, 1e-12);
}

TEST(Zipf, ChiSquareGoodnessOfFit) {
  // Pearson chi-square against the stated probabilities, gated at the
  // 99.9% point of chi-square(df) via the Wilson-Hilferty approximation
  // X2_p(df) ~ df * (1 - 2/(9 df) + z_p * sqrt(2/(9 df)))^3.
  constexpr int kRanks = 200;
  constexpr int kDraws = 100000;
  constexpr std::uint64_t kSeed = 20260806;
  for (const double theta : {0.0, 0.8, 1.2}) {
    SCOPED_TRACE("theta " + std::to_string(theta) + ", seed " +
                 std::to_string(kSeed));
    const ZipfDistribution zipf(kRanks, theta);
    Rng rng(kSeed);
    std::vector<int> counts(kRanks, 0);
    for (int i = 0; i < kDraws; ++i) {
      ++counts[static_cast<std::size_t>(zipf.Sample(&rng))];
    }
    // Merge the sparse tail into one bin so every expected count is at
    // least 5 (the usual chi-square validity rule).
    double statistic = 0.0;
    int bins = 0;
    double tail_expected = 0.0;
    int tail_observed = 0;
    for (int k = 0; k < kRanks; ++k) {
      const double expected = zipf.Probability(k) * kDraws;
      if (expected >= 5.0) {
        const double diff = counts[static_cast<std::size_t>(k)] - expected;
        statistic += diff * diff / expected;
        ++bins;
      } else {
        tail_expected += expected;
        tail_observed += counts[static_cast<std::size_t>(k)];
      }
    }
    if (tail_expected > 0.0) {
      const double diff = tail_observed - tail_expected;
      statistic += diff * diff / tail_expected;
      ++bins;
    }
    const double df = bins - 1;
    const double z = 3.0902;  // 99.9% standard-normal quantile
    const double critical =
        df * std::pow(1.0 - 2.0 / (9.0 * df) + z * std::sqrt(2.0 / (9.0 * df)),
                      3.0);
    EXPECT_LT(statistic, critical)
        << "chi-square " << statistic << " over " << df << " df";
  }
}

TEST(Zipf, SharedTableMatchesLocallyBuiltTable) {
  // The replication engine passes one shared ZipfDistribution to every
  // replication of a sweep cell; a replication that builds its own
  // table must produce bit-identical results, or the hoist would change
  // simulated output.
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 800;
  config.zipf_theta = 0.9;
  config.min_rounds = 3;
  config.max_rounds = 10;
  config.seed = 4242;
  const auto dataset = BuildTestbedDataset(config).value();
  const BroadcastServer server =
      BroadcastServer::Create(config.scheme, dataset, config.geometry,
                              config.params)
          .value();
  const ZipfDistribution shared(config.num_records, config.zipf_theta);
  for (std::uint64_t id = 0; id < 3; ++id) {
    SCOPED_TRACE("replication " + std::to_string(id));
    const std::uint64_t seed = ReplicationSeed(config.seed, id);
    const ReplicationResult local =
        RunReplication(server, *dataset, config, seed);
    const ReplicationResult hoisted =
        RunReplication(server, *dataset, config, seed, &shared);
    EXPECT_EQ(local.access.count(), hoisted.access.count());
    EXPECT_EQ(local.access.mean(), hoisted.access.mean());
    EXPECT_EQ(local.tuning.mean(), hoisted.tuning.mean());
    EXPECT_EQ(local.found, hoisted.found);
  }
}

TEST(Zipf, SweepJobsBitIdentityWithSkew) {
  // The hoisted table must also keep the --jobs guarantee: a skewed
  // sweep merged by 1 and by 4 workers reports identical statistics.
  TestbedConfig config;
  config.scheme = SchemeKind::kOneM;
  config.num_records = 600;
  config.zipf_theta = 1.1;
  config.min_rounds = 4;
  config.max_rounds = 16;
  config.seed = 31337;
  ParallelExperiment serial({.jobs = 1});
  ParallelExperiment parallel({.jobs = 4});
  const auto a = serial.RunSweep({config, config});
  const auto b = parallel.RunSweep({config, config});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok() && b[i].ok());
    EXPECT_EQ(a[i].value().access.mean(), b[i].value().access.mean());
    EXPECT_EQ(a[i].value().tuning.mean(), b[i].value().tuning.mean());
    EXPECT_EQ(a[i].value().requests, b[i].value().requests);
  }
}

}  // namespace
}  // namespace airindex

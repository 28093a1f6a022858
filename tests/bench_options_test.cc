// Tests for the benches' shared command line (bench/bench_main.h):
// unknown flags and non-finite numbers are refused, and every invocation
// CI makes still parses.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_main.h"

namespace airindex {
namespace {

BenchOptions Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseBenchOptions(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptionsDeathTest, RejectsRemovedWalkSelectionFlag) {
  EXPECT_EXIT(Parse({"--quick", "--access-path", "pointer"}),
              ::testing::ExitedWithCode(2), "--access-path");
}

TEST(BenchOptionsDeathTest, RejectsMisspeltFlag) {
  // --update-rate misspelt: it must not silently run a frozen dataset.
  EXPECT_EXIT(Parse({"--update-rte", "0.5"}), ::testing::ExitedWithCode(2),
              "unknown flag '--update-rte'");
}

TEST(BenchOptionsDeathTest, RejectsStrayArgument) {
  EXPECT_EXIT(Parse({"--quick", "fig4"}), ::testing::ExitedWithCode(2),
              "unknown flag 'fig4'");
}

TEST(BenchOptionsDeathTest, RejectsNonFiniteNumbers) {
  // strtod parses both; an infinite update rate once validated and ran a
  // dataset with no mutations at all.
  EXPECT_EXIT(Parse({"--update-rate", "inf"}), ::testing::ExitedWithCode(2),
              "invalid value for --update-rate: inf");
  // A NaN skew used to be dropped silently, running the uniform workload.
  EXPECT_EXIT(Parse({"--zipf", "nan"}), ::testing::ExitedWithCode(2),
              "invalid value for --zipf: nan");
}

TEST(BenchOptionsDeathTest, RejectsIntegersPastIntMax) {
  // 2^32 + 1 and 2^32 + 100 once wrapped to one job and a 100-record
  // point; a value strtol itself cannot hold sets ERANGE.
  EXPECT_EXIT(Parse({"--jobs", "4294967297"}), ::testing::ExitedWithCode(2),
              "invalid value for --jobs: 4294967297");
  EXPECT_EXIT(Parse({"--records", "4294967396"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --records: 4294967396");
  EXPECT_EXIT(Parse({"--records", "2147483648"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --records: 2147483648");
  EXPECT_EXIT(Parse({"--cache-size", "99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "invalid value for --cache-size");
}

TEST(BenchOptionsDeathTest, BoundsJobs) {
  // Parsing only: no bench (and no thread pool) is started.
  EXPECT_EXIT(Parse({"--jobs", std::to_string(kMaxBenchJobs + 1)}),
              ::testing::ExitedWithCode(2), "--jobs must be <= 256");
}

TEST(BenchOptions, AcceptsIntegerBounds) {
  EXPECT_EQ(Parse({"--jobs", std::to_string(kMaxBenchJobs)}).jobs,
            kMaxBenchJobs);
  EXPECT_EQ(Parse({"--records", "2147483647"}).records, 2147483647);
}

// The bench invocations of .github/workflows/ci.yml: smoke-bench cold
// and warm-cache runs, and the sharded-merge job.
TEST(BenchOptions, ParsesEveryCiInvocation) {
  const BenchOptions cold = Parse({"--quick", "--json", "bench-fig4.json"});
  EXPECT_TRUE(cold.quick);
  EXPECT_EQ(cold.json_path, "bench-fig4.json");

  const BenchOptions warm = Parse({"--quick", "--program-cache", ".prog-cache",
                                   "--json", "bench-fig4-cached.json"});
  EXPECT_TRUE(warm.quick);
  EXPECT_EQ(warm.program_cache_dir, ".prog-cache");
  EXPECT_EQ(warm.json_path, "bench-fig4-cached.json");

  const BenchOptions shard =
      Parse({"--quick", "--shard", "2/4", "--json", "fig4-part-2.json"});
  EXPECT_TRUE(shard.quick);
  EXPECT_EQ(shard.shard.index, 1);
  EXPECT_EQ(shard.shard.count, 4);
  EXPECT_EQ(shard.json_path, "fig4-part-2.json");
}

}  // namespace
}  // namespace airindex

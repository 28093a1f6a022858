// Tests for the probe-trace instrumentation of distributed indexing.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "des/random.h"
#include "schemes/distributed.h"
#include "schemes/scheme.h"
#include "schemes/trace.h"

namespace airindex {
namespace {

std::shared_ptr<const Dataset> MakeDataset(int n) {
  DatasetConfig config;
  config.num_records = n;
  config.key_width = 6;
  return std::make_shared<const Dataset>(Dataset::Generate(config).value());
}

BucketGeometry SmallGeometry() {
  BucketGeometry geometry;
  geometry.record_bytes = 30;
  geometry.key_bytes = 6;
  return geometry;
}

/// Every AccessResult field, so a traced walk cannot drift from the
/// untraced one in any counter.
void ExpectSameResult(const AccessResult& a, const AccessResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.found, b.found) << context;
  EXPECT_EQ(a.access_time, b.access_time) << context;
  EXPECT_EQ(a.tuning_time, b.tuning_time) << context;
  EXPECT_EQ(a.probes, b.probes) << context;
  EXPECT_EQ(a.false_drops, b.false_drops) << context;
  EXPECT_EQ(a.index_probes, b.index_probes) << context;
  EXPECT_EQ(a.overflow_hops, b.overflow_hops) << context;
  EXPECT_EQ(a.retries, b.retries) << context;
  EXPECT_EQ(a.anomalies, b.anomalies) << context;
  EXPECT_EQ(a.abandoned, b.abandoned) << context;
  EXPECT_EQ(a.channel_hops, b.channel_hops) << context;
  EXPECT_EQ(a.start_channel, b.start_channel) << context;
  EXPECT_EQ(a.final_channel, b.final_channel) << context;
  EXPECT_EQ(a.switch_bytes, b.switch_bytes) << context;
  EXPECT_EQ(a.final_channel_tuning, b.final_channel_tuning) << context;
}

void ExpectSameEvents(const AccessTrace& got, const AccessTrace& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string step = context + " step " + std::to_string(i);
    EXPECT_EQ(got[i].at, want[i].at) << step;
    EXPECT_EQ(got[i].duration, want[i].duration) << step;
    EXPECT_EQ(got[i].action, want[i].action) << step;
    EXPECT_EQ(got[i].bucket, want[i].bucket) << step;
    EXPECT_EQ(got[i].note, want[i].note) << step;
  }
}

/// The distributed program of the paper's Figure 1 (81 records, fanout
/// 3, r = 2), restored from its flattened arena.
std::unique_ptr<BroadcastScheme> RestoredFigure1(
    const std::shared_ptr<const Dataset>& dataset,
    const DistributedIndexing& built) {
  Result<ProgramArena> arena =
      FlattenSchemeProgram(SchemeKind::kDistributed, built, 0, 0);
  EXPECT_TRUE(arena.ok()) << arena.status().ToString();
  Result<std::unique_ptr<BroadcastScheme>> restored = RestoreSchemeFromArena(
      std::make_shared<const ProgramArena>(std::move(arena).value()), dataset,
      SmallGeometry(), SchemeParams());
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  return std::move(restored).value();
}

TEST(Trace, TracedEqualsUntraced) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  const std::unique_ptr<BroadcastScheme> restored =
      RestoredFigure1(dataset, scheme);
  const auto* restored_distributed =
      dynamic_cast<const DistributedIndexing*>(restored.get());
  ASSERT_NE(restored_distributed, nullptr);
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const bool present = rng.NextBernoulli(0.7);
    const std::string key =
        present ? dataset->record(static_cast<int>(rng.NextBounded(81))).key
                : dataset->AbsentKey(static_cast<int>(rng.NextBounded(82)));
    const Bytes tune_in =
        static_cast<Bytes>(rng.NextBounded(static_cast<std::uint64_t>(
            2 * scheme.channel().cycle_bytes())));
    const std::string context = key + " @" + std::to_string(tune_in);
    AccessTrace trace;
    const AccessResult traced = scheme.AccessTraced(key, tune_in, &trace);
    ExpectSameResult(traced, scheme.Access(key, tune_in), context);
    ASSERT_FALSE(trace.empty());

    AccessTrace restored_trace;
    const AccessResult restored_traced =
        restored_distributed->AccessTraced(key, tune_in, &restored_trace);
    ExpectSameResult(restored_traced, restored->Access(key, tune_in),
                     "restored " + context);
    ExpectSameResult(restored_traced, traced, "restored vs built " + context);
    ExpectSameEvents(restored_trace, trace, "restored vs built " + context);
  }
}

// Full event logs of six walks on the Figure 1 program, captured from
// the traced walk before it shared one template with Access. Together
// they reach the found conclusion, all three not-on-air conclusions,
// the restart rule and a control-index climb.
TEST(Trace, MatchesParentEventLog) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  const Bytes cycle = scheme.channel().cycle_bytes();
  ASSERT_EQ(cycle, 3870);
  struct Expected {
    bool found;
    Bytes access_time;
    Bytes tuning_time;
    int probes;
    int index_probes;
  };
  struct LoggedWalk {
    std::string key;
    Bytes tune_in;
    Expected result;
    AccessTrace events;
  };
  const std::vector<LoggedWalk> walks = {
      // Found: climb once, then descend to the record.
      {dataset->record(40).key,
       77,
       {true, 1963, 223, 7, 6},
       {
           {77, 13, ProbeAction::kInitialWait, kNoBucket,
            "listen to the partial bucket"},
           {90, 30, ProbeAction::kRead, 3,
            "first complete bucket: take next-index-segment offset"},
           {120, 330, ProbeAction::kDoze, kNoBucket,
            "to the next index segment"},
           {450, 30, ProbeAction::kRead, 15,
            "index probe, range [aaaaab..aaaacb]"},
           {480, 810, ProbeAction::kClimb, kNoBucket,
            "control index: to the next occurrence of an ancestor"},
           {1290, 30, ProbeAction::kRead, 43,
            "index probe, range [aaaaab..aaaagf]"},
           {1320, 0, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {1320, 30, ProbeAction::kRead, 44,
            "index probe, range [aaaacd..aaaaed]"},
           {1350, 420, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {1770, 30, ProbeAction::kRead, 59,
            "index probe, range [aaaacv..aaaadl]"},
           {1800, 30, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {1830, 30, ProbeAction::kRead, 61,
            "index probe, range [aaaadb..aaaadf]"},
           {1860, 150, ProbeAction::kDoze, kNoBucket, "to the data bucket"},
           {2010, 30, ProbeAction::kDownload, 67, "requested record"},
           {2040, 0, ProbeAction::kConclude, kNoBucket, "found"},
       }},
      // The restart rule: the record already passed this cycle.
      {dataset->record(3).key,
       cycle / 2,
       {true, 2235, 225, 7, 5},
       {
           {1935, 15, ProbeAction::kInitialWait, kNoBucket,
            "listen to the partial bucket"},
           {1950, 30, ProbeAction::kRead, 65,
            "first complete bucket: take next-index-segment offset"},
           {1980, 180, ProbeAction::kDoze, kNoBucket,
            "to the next index segment"},
           {2160, 30, ProbeAction::kRead, 72,
            "index probe, range [aaaacd..aaaaed]"},
           {2190, 1680, ProbeAction::kRestart, kNoBucket,
            "key already passed: wait for the next broadcast"},
           {3870, 30, ProbeAction::kRead, 0,
            "index probe, range [aaaaab..aaaagf]"},
           {3900, 0, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {3900, 30, ProbeAction::kRead, 1,
            "index probe, range [aaaaab..aaaacb]"},
           {3930, 0, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {3930, 30, ProbeAction::kRead, 2,
            "index probe, range [aaaaab..aaaaar]"},
           {3960, 30, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {3990, 30, ProbeAction::kRead, 4,
            "index probe, range [aaaaah..aaaaal]"},
           {4020, 120, ProbeAction::kDoze, kNoBucket, "to the data bucket"},
           {4140, 30, ProbeAction::kDownload, 9, "requested record"},
           {4170, 0, ProbeAction::kConclude, kNoBucket, "found"},
       }},
      // A control-index climb from the first segment to the root.
      {dataset->record(62).key,
       0,
       {true, 3030, 210, 7, 6},
       {
           {0, 0, ProbeAction::kInitialWait, kNoBucket,
            "listen to the partial bucket"},
           {0, 30, ProbeAction::kRead, 0,
            "first complete bucket: take next-index-segment offset"},
           {30, 420, ProbeAction::kDoze, kNoBucket,
            "to the next index segment"},
           {450, 30, ProbeAction::kRead, 15,
            "index probe, range [aaaaab..aaaacb]"},
           {480, 810, ProbeAction::kClimb, kNoBucket,
            "control index: to the next occurrence of an ancestor"},
           {1290, 30, ProbeAction::kRead, 43,
            "index probe, range [aaaaab..aaaagf]"},
           {1320, 1290, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {2610, 30, ProbeAction::kRead, 87,
            "index probe, range [aaaaef..aaaagf]"},
           {2640, 0, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {2640, 30, ProbeAction::kRead, 88,
            "index probe, range [aaaaef..aaaaev]"},
           {2670, 60, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {2730, 30, ProbeAction::kRead, 91,
            "index probe, range [aaaaer..aaaaev]"},
           {2760, 240, ProbeAction::kDoze, kNoBucket, "to the data bucket"},
           {3000, 30, ProbeAction::kDownload, 100, "requested record"},
           {3030, 0, ProbeAction::kConclude, kNoBucket, "found"},
       }},
      // A key below the range: restart, then conclude at the root.
      {dataset->AbsentKey(0),
       0,
       {false, 3900, 90, 3, 3},
       {
           {0, 0, ProbeAction::kInitialWait, kNoBucket,
            "listen to the partial bucket"},
           {0, 30, ProbeAction::kRead, 0,
            "first complete bucket: take next-index-segment offset"},
           {30, 420, ProbeAction::kDoze, kNoBucket,
            "to the next index segment"},
           {450, 30, ProbeAction::kRead, 15,
            "index probe, range [aaaaab..aaaacb]"},
           {480, 3390, ProbeAction::kRestart, kNoBucket,
            "key already passed: wait for the next broadcast"},
           {3870, 30, ProbeAction::kRead, 0,
            "index probe, range [aaaaab..aaaagf]"},
           {3900, 0, ProbeAction::kConclude, kNoBucket,
            "key below everything still to come: not on air"},
       }},
      // A key in a gap between a leaf's children.
      {dataset->AbsentKey(40),
       1234,
       {false, 626, 176, 5, 4},
       {
           {1234, 26, ProbeAction::kInitialWait, kNoBucket,
            "listen to the partial bucket"},
           {1260, 30, ProbeAction::kRead, 42,
            "first complete bucket: take next-index-segment offset"},
           {1290, 0, ProbeAction::kDoze, kNoBucket,
            "to the next index segment"},
           {1290, 30, ProbeAction::kRead, 43,
            "index probe, range [aaaaab..aaaagf]"},
           {1320, 0, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {1320, 30, ProbeAction::kRead, 44,
            "index probe, range [aaaacd..aaaaed]"},
           {1350, 420, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {1770, 30, ProbeAction::kRead, 59,
            "index probe, range [aaaacv..aaaadl]"},
           {1800, 30, ProbeAction::kDoze, kNoBucket,
            "descend to the child index bucket"},
           {1830, 30, ProbeAction::kRead, 61,
            "index probe, range [aaaadb..aaaadf]"},
           {1860, 0, ProbeAction::kConclude, kNoBucket,
            "key falls in a gap between children: not on air"},
       }},
      // A key beyond the maximum: no ancestor covers it.
      {dataset->AbsentKey(81),
       500,
       {false, 400, 70, 2, 2},
       {
           {500, 10, ProbeAction::kInitialWait, kNoBucket,
            "listen to the partial bucket"},
           {510, 30, ProbeAction::kRead, 17,
            "first complete bucket: take next-index-segment offset"},
           {540, 330, ProbeAction::kDoze, kNoBucket,
            "to the next index segment"},
           {870, 30, ProbeAction::kRead, 29,
            "index probe, range [aaaaab..aaaacb]"},
           {900, 0, ProbeAction::kConclude, kNoBucket,
            "key beyond the maximum key: not on air"},
       }},
  };
  for (const LoggedWalk& walk : walks) {
    const std::string context = walk.key + " @" + std::to_string(walk.tune_in);
    AccessTrace trace;
    const AccessResult result = scheme.AccessTraced(walk.key, walk.tune_in,
                                                    &trace);
    EXPECT_EQ(result.found, walk.result.found) << context;
    EXPECT_EQ(result.access_time, walk.result.access_time) << context;
    EXPECT_EQ(result.tuning_time, walk.result.tuning_time) << context;
    EXPECT_EQ(result.probes, walk.result.probes) << context;
    EXPECT_EQ(result.index_probes, walk.result.index_probes) << context;
    EXPECT_EQ(result.anomalies, 0) << context;
    ExpectSameEvents(trace, walk.events, context);
  }
}

TEST(Trace, EventsAreConsistentWithTheResult) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string key =
        dataset->record(static_cast<int>(rng.NextBounded(81))).key;
    const Bytes tune_in = static_cast<Bytes>(rng.NextBounded(10000));
    AccessTrace trace;
    const AccessResult result = scheme.AccessTraced(key, tune_in, &trace);
    ASSERT_TRUE(result.found);

    // Events are contiguous in time and start at tune-in.
    ASSERT_EQ(trace.front().at, tune_in);
    Bytes t = tune_in;
    Bytes listened = 0;
    int reads = 0;
    for (const ProbeEvent& event : trace) {
      EXPECT_EQ(event.at, t);
      t += event.duration;
      switch (event.action) {
        case ProbeAction::kInitialWait:
          listened += event.duration;
          break;
        case ProbeAction::kRead:
        case ProbeAction::kDownload:
          listened += event.duration;
          ++reads;
          ASSERT_LT(event.bucket, scheme.channel().num_buckets());
          EXPECT_EQ(event.duration,
                    scheme.channel().bucket(event.bucket).size);
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(t - tune_in, result.access_time);
    EXPECT_EQ(listened, result.tuning_time);
    EXPECT_EQ(reads, result.probes);
    // A successful walk ends with download + conclude.
    EXPECT_EQ(trace.back().action, ProbeAction::kConclude);
    EXPECT_EQ(trace[trace.size() - 2].action, ProbeAction::kDownload);
  }
}

TEST(Trace, RestartRuleIsVisible) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  // Record 3 sits at the start of the cycle; tuning in half-way through
  // guarantees the "key already passed" restart.
  AccessTrace trace;
  const AccessResult result = scheme.AccessTraced(
      dataset->record(3).key, scheme.channel().cycle_bytes() / 2, &trace);
  ASSERT_TRUE(result.found);
  bool saw_restart = false;
  for (const ProbeEvent& event : trace) {
    saw_restart = saw_restart || event.action == ProbeAction::kRestart;
  }
  EXPECT_TRUE(saw_restart);
}

TEST(Trace, PrintsReadably) {
  const auto dataset = MakeDataset(81);
  const DistributedIndexing scheme =
      DistributedIndexing::Build(dataset, SmallGeometry(), 2).value();
  AccessTrace trace;
  scheme.AccessTraced(dataset->record(40).key, 77, &trace);
  std::ostringstream out;
  PrintTrace(trace, scheme.channel(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("initial-wait"), std::string::npos);
  EXPECT_NE(text.find("download"), std::string::npos);
  EXPECT_NE(text.find("conclude"), std::string::npos);
}

TEST(Trace, ActionNamesComplete) {
  for (const ProbeAction action :
       {ProbeAction::kInitialWait, ProbeAction::kRead, ProbeAction::kDoze,
        ProbeAction::kDownload, ProbeAction::kRestart, ProbeAction::kClimb,
        ProbeAction::kConclude}) {
    EXPECT_STRNE(ProbeActionToString(action), "unknown");
  }
}

}  // namespace
}  // namespace airindex

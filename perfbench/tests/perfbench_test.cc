// Unit tests of the benchmark's own code: the tail-percentile rule, self
// time over nested, overlapping and replayed children, the strict command
// line, seed handling of the workloads, and the metric list BENCHMARK.json
// declares.

#include <set>
#include <string>
#include <vector>

#include "cli.h"
#include "core/json_report.h"
#include "gtest/gtest.h"
#include "metrics.h"
#include "stats.h"
#include "trace.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

TEST(TailRule, LeavesTenSamplesBeyondTheReportedValue) {
  std::vector<double> samples = Iota(1000);
  std::reverse(samples.begin(), samples.end());
  const TailSummary summary = Summarize(samples);
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_DOUBLE_EQ(summary.median, 500.5);
  ASSERT_TRUE(summary.has_tail);
  EXPECT_DOUBLE_EQ(summary.tail, 990.0);  // 991..1000 lie beyond it
  EXPECT_DOUBLE_EQ(summary.tail_percentile, 99.0);
}

TEST(TailRule, SmallestCountWithATail) {
  const TailSummary summary = Summarize(Iota(11));
  ASSERT_TRUE(summary.has_tail);
  EXPECT_DOUBLE_EQ(summary.tail, 1.0);
  EXPECT_NEAR(summary.tail_percentile, 100.0 / 11.0, 1e-12);
  EXPECT_DOUBLE_EQ(summary.median, 6.0);
}

TEST(TailRule, NoTailBelowElevenSamples) {
  const TailSummary summary = Summarize(Iota(10));
  EXPECT_EQ(summary.count, 10u);
  EXPECT_FALSE(summary.has_tail);
  EXPECT_DOUBLE_EQ(summary.tail, 0.0);
  EXPECT_DOUBLE_EQ(summary.median, 5.5);
  EXPECT_EQ(Summarize({}).count, 0u);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

Span MakeSpan(const char* layer, double start, double end, int parent,
              bool replay = false) {
  Span span;
  span.name = layer;
  span.layer = layer;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.replay = replay;
  return span;
}

TEST(SelfTime, NestedChildrenAreSubtracted) {
  const std::vector<Span> spans = {
      MakeSpan("core", 0.0, 10.0, kNoSpan),
      MakeSpan("schemes", 1.0, 3.0, 0),
      MakeSpan("des", 5.0, 6.0, 0),
      MakeSpan("data", 1.5, 2.0, 1),  // grandchild: only its parent shrinks
  };
  const std::vector<double> self = SelfTimes(spans, {});
  EXPECT_DOUBLE_EQ(self[0], 7.0);
  EXPECT_DOUBLE_EQ(self[1], 1.5);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parallel children on other threads overlap each other and one runs
  // past its parent's end; only the covered part of the parent counts.
  const std::vector<Span> spans = {
      MakeSpan("bench", 0.0, 10.0, kNoSpan),
      MakeSpan("core", 1.0, 4.0, 0),
      MakeSpan("core", 3.0, 6.0, 0),
      MakeSpan("core", 2.0, 5.0, 0),
      MakeSpan("core", 8.0, 12.0, 0),
  };
  const std::vector<double> self = SelfTimes(spans, {});
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
  const std::map<std::string, double> by_layer = SelfTimeByLayer(spans, {});
  EXPECT_DOUBLE_EQ(by_layer.at("bench"), 3.0);
  EXPECT_DOUBLE_EQ(by_layer.at("core"), 3.0 + 3.0 + 3.0 + 4.0);
}

TEST(SelfTime, ReplaysAndComponentsAreSubtractedByDuration) {
  std::vector<Span> spans = {
      MakeSpan("core", 0.0, 10.0, kNoSpan),
      MakeSpan("schemes", 12.0, 15.0, 0, /*replay=*/true),
      MakeSpan("des", 15.0, 16.0, 0, /*replay=*/true),
  };
  const std::vector<Component> components = {
      Component{"walk", "schemes", 0, kNoReplication, 0.5, 10}};
  const std::vector<double> self = SelfTimes(spans, components);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 3.0 - 1.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  const std::map<std::string, double> by_layer =
      SelfTimeByLayer(spans, components);
  EXPECT_DOUBLE_EQ(by_layer.at("schemes"), 3.5);
  EXPECT_DOUBLE_EQ(by_layer.at("core"), 5.5);

  // Replays longer than the parent clamp its self time at zero.
  spans[1].end = 30.0;
  EXPECT_DOUBLE_EQ(SelfTimes(spans, components)[0], 0.0);
}

TEST(SelfTime, ReplaysCoverTheGrandparent) {
  // A task span encloses a call and the call's out-of-line replays.
  const std::vector<Span> spans = {
      MakeSpan("bench", 0.0, 20.0, kNoSpan),
      MakeSpan("core", 0.0, 10.0, 0),
      MakeSpan("schemes", 10.0, 15.0, 1, /*replay=*/true),
      MakeSpan("des", 15.0, 18.0, 1, /*replay=*/true),
      MakeSpan("dynamic", 16.0, 17.0, 3),
  };
  const std::vector<double> self = SelfTimes(spans, {});
  EXPECT_DOUBLE_EQ(self[0], 2.0);
  EXPECT_DOUBLE_EQ(self[1], 10.0 - 5.0 - 3.0);
  EXPECT_DOUBLE_EQ(self[2], 5.0);
  EXPECT_DOUBLE_EQ(self[3], 2.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, TracerRecordsParentsAndReplications) {
  Tracer tracer;
  const int root = tracer.Begin("bench", "root", kNoSpan);
  {
    ScopedSpan child(&tracer, "core", "child", root, 7);
    EXPECT_EQ(child.id(), 1);
  }
  tracer.End(root);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].replication, 7);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_LE(spans[1].end, spans[0].end);
}

airindex::Result<Options> Parse(std::vector<std::string> args) {
  return ParseOptions(args, 4);
}

TEST(Cli, AcceptsTheBenchmarkCommandLine) {
  const auto options = Parse({"--workload", "busy_cell", "--seed", "17",
                              "--seconds", "10", "--trace", "1"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options.value().workload, "busy_cell");
  EXPECT_EQ(options.value().seed, 17u);
  EXPECT_DOUBLE_EQ(options.value().seconds, 10.0);
  EXPECT_TRUE(options.value().trace);
  EXPECT_EQ(options.value().jobs, 4);
}

TEST(Cli, RejectsBadInput) {
  const std::vector<std::vector<std::string>> bad = {
      {"--workload", "nope", "--seed", "1"},
      {"--workload", "busy_cell", "--seed", "1", "--bogus", "1"},
      {"--workload", "busy_cell", "--seed", "1", "--quick"},
      {"--workload", "busy_cell", "--seed", "12x"},
      {"--workload", "busy_cell", "--seed", "-1"},
      {"--workload", "busy_cell", "--seed", "+1"},
      {"--workload", "busy_cell", "--seed", ""},
      {"--workload", "busy_cell", "--seed", "99999999999999999999999"},
      {"--workload", "busy_cell", "--seed", "1", "--jobs", "0"},
      {"--workload", "busy_cell", "--seed", "1", "--jobs", "5"},
      {"--workload", "busy_cell", "--seed", "1", "--jobs", "two"},
      {"--workload", "busy_cell", "--seed", "1", "--jobs", "-3"},
      {"--workload", "busy_cell", "--seed", "1", "--seconds", "0"},
      {"--workload", "busy_cell", "--seed", "1", "--seconds", "nan"},
      {"--workload", "busy_cell", "--seed", "1", "--trace", "2"},
      {"--workload", "busy_cell", "--seed", "1", "--seed", "2"},
      {"--workload", "busy_cell"},
      {"--seed", "1"},
      {"--workload"},
  };
  for (const auto& args : bad) {
    std::string joined;
    for (const std::string& arg : args) joined += arg + " ";
    EXPECT_FALSE(Parse(args).ok()) << joined;
  }
}

TEST(Workloads, UnknownNameIsAnError) {
  EXPECT_FALSE(MakeWorkload("fig4", 1).ok());
  for (const std::string& name : WorkloadNames()) {
    EXPECT_TRUE(MakeWorkload(name, 1).ok()) << name;
  }
}

TEST(Workloads, SameSeedGivesIdenticalSimulatedMetrics) {
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    const Workload workload = MakeWorkload(name, 7, Size::kSmall).value();
    const PassResult first = RunPass(workload, 1);
    const PassResult second = RunPass(workload, 2);
    EXPECT_TRUE(ComparePasses(workload, first, second).empty());
    const Evaluation a = Evaluate(workload, first);
    const Evaluation b = Evaluate(workload, second);
    EXPECT_TRUE(a.problems.empty());
    EXPECT_EQ(a.access_bytes, b.access_bytes);
    EXPECT_EQ(a.tuning_bytes, b.tuning_bytes);
    EXPECT_EQ(a.model_rel_err, b.model_rel_err);
    EXPECT_EQ(a.attempted, b.attempted);
    EXPECT_EQ(a.failed, 0);
  }
}

TEST(Workloads, DifferentSeedChangesSimulatedMetrics) {
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    const Workload seven = MakeWorkload(name, 7, Size::kSmall).value();
    const Workload eight = MakeWorkload(name, 8, Size::kSmall).value();
    const Evaluation a = Evaluate(seven, RunPass(seven, 1));
    const Evaluation b = Evaluate(eight, RunPass(eight, 1));
    EXPECT_NE(a.access_bytes, b.access_bytes);
    EXPECT_NE(a.tuning_bytes, b.tuning_bytes);
  }
}

TEST(Workloads, ComparePassesCatchesADifference) {
  const Workload workload =
      MakeWorkload("paper_fig4", 7, Size::kSmall).value();
  const PassResult reference = RunPass(workload, 1);
  PassResult changed = reference;
  changed.cells.back().access_mean += 1.0;
  changed.cells.front().metrics.Increment("client.index_probes");
  const std::vector<std::string> diffs =
      ComparePasses(workload, reference, changed);
  EXPECT_GE(diffs.size(), 2u);
}

TEST(Traced, ReplaysAgreeWithTheEngineAndReportEveryMetric) {
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    const Workload workload = MakeWorkload(name, 3, Size::kSmall).value();
    const PassResult untraced = RunPass(workload, 2);
    Tracer tracer;
    const TracedResult traced =
        RunTracedPass(workload, 2, untraced, &tracer);
    for (const std::string& problem : traced.problems) ADD_FAILURE() << problem;
    EXPECT_GT(traced.attempted, 0);
    for (const MetricSpec& spec : PerLayerMetrics()) {
      EXPECT_EQ(traced.metrics.count(spec.name), 1u) << spec.name;
    }
    EXPECT_GT(traced.self_by_layer.at("schemes") +
                  traced.self_by_layer.at("client"),
              0.0);
  }
}

std::vector<std::pair<std::string, std::string>> Declared(const char* key) {
  const auto json = airindex::ReadJsonFile(std::string(PERFBENCH_SOURCE_DIR) +
                                           "/../BENCHMARK.json");
  EXPECT_TRUE(json.ok());
  std::vector<std::pair<std::string, std::string>> out;
  if (!json.ok()) return out;
  for (const airindex::JsonValue& metric : json.value().Find(key)->items()) {
    out.emplace_back(metric.Find("name")->string_value(),
                     metric.Find("unit")->string_value());
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> Printed(
    const std::vector<MetricSpec>& specs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricSpec& spec : specs) out.emplace_back(spec.name, spec.unit);
  return out;
}

TEST(BenchmarkJson, DeclaresExactlyThePrintedMetrics) {
  EXPECT_EQ(Declared("end_to_end"), Printed(EndToEndMetrics()));
  EXPECT_EQ(Declared("per_layer"), Printed(PerLayerMetrics()));
}

}  // namespace
}  // namespace perfbench

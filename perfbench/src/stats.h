// Summary statistics the benchmark reports: medians, and the tail rule of
// the benchmark method (the highest percentile that still has at least
// ten samples beyond it, reported together with the sample count).
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples strictly above the reported tail value.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty set.
double Median(std::vector<double> values);

/// Median plus the tail value of one timing.
struct TailSummary {
  std::size_t count = 0;
  double median = 0.0;
  /// The value at the highest percentile that leaves at least
  /// kTailSamplesBeyond samples above it: the (count - 10)-th smallest
  /// sample. Meaningful only when has_tail.
  double tail = 0.0;
  /// That percentile, 100 * (count - 10) / count — 99 at 1000 samples.
  double tail_percentile = 0.0;
  /// False below kTailSamplesBeyond + 1 samples, where no percentile has
  /// ten samples beyond it; tail and tail_percentile then stay 0.
  bool has_tail = false;
};

TailSummary Summarize(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

TailSummary Summarize(std::vector<double> samples) {
  TailSummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.median = Median(samples);
  if (samples.size() > kTailSamplesBeyond) {
    const std::size_t index = samples.size() - kTailSamplesBeyond - 1;
    summary.tail = samples[index];
    summary.tail_percentile = 100.0 *
                              static_cast<double>(index + 1) /
                              static_cast<double>(samples.size());
    summary.has_tail = true;
  }
  return summary;
}

}  // namespace perfbench

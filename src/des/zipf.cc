#include "des/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace airindex {

ZipfDistribution::ZipfDistribution(int n, double theta)
    : n_(std::max(n, 1)), theta_(std::max(theta, 0.0)) {
  cumulative_.resize(static_cast<std::size_t>(n_));
  double total = 0.0;
  for (int k = 0; k < n_; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta_);
    cumulative_[static_cast<std::size_t>(k)] = total;
  }
  for (double& c : cumulative_) c /= total;
  cumulative_.back() = 1.0;  // guard against rounding

  // One merged pass: j/M < 1.0 == cumulative_.back() bounds the scan.
  guide_.resize(std::bit_ceil(static_cast<std::size_t>(n_)));
  const double size = static_cast<double>(guide_.size());
  int k = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    const double threshold = static_cast<double>(j) / size;
    while (cumulative_[static_cast<std::size_t>(k)] < threshold) ++k;
    guide_[j] = k;
  }
}

int ZipfDistribution::Rank(double u) const {
  // u * M is exact (M a power of two), so j/M <= u: the guide entry
  // never overshoots std::lower_bound's answer, and the scan stops at
  // it because cumulative_.back() == 1.0 > u.
  const auto j = static_cast<std::size_t>(u * static_cast<double>(guide_.size()));
  auto i = static_cast<std::size_t>(guide_[j]);
  while (cumulative_[i] < u) ++i;
  return static_cast<int>(i);
}

double ZipfDistribution::Probability(int k) const {
  if (k < 0 || k >= n_) return 0.0;
  const double lo =
      k == 0 ? 0.0 : cumulative_[static_cast<std::size_t>(k - 1)];
  return cumulative_[static_cast<std::size_t>(k)] - lo;
}

}  // namespace airindex

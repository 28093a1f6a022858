#ifndef AIRINDEX_DES_ZIPF_H_
#define AIRINDEX_DES_ZIPF_H_

#include <vector>

#include "des/random.h"

namespace airindex {

/// Zipf(theta) sampler over ranks 0..n-1 (rank 0 hottest):
/// P(rank k) proportional to 1 / (k+1)^theta. theta = 0 degenerates to
/// the uniform distribution; theta around 0.8–1.0 models the skewed
/// request popularity used throughout the broadcast-scheduling
/// literature (Acharya et al.'s broadcast disks).
///
/// Sampling is inverse-CDF over a precomputed cumulative table, looked
/// up through a guide table (Chen–Asau indexed search): with M the
/// smallest power of two >= n, guide entry j holds the first rank whose
/// cumulative probability reaches j/M, so a draw u starts at entry
/// floor(u*M) and scans forward — under 1 + n/M <= 2 steps expected.
/// O(n) construction, M ints of guide, O(1) expected per draw, and
/// exactly the rank a binary search over the cumulative table returns.
class ZipfDistribution {
 public:
  /// `n` >= 1 ranks, `theta` >= 0.
  ZipfDistribution(int n, double theta);

  /// Draws a rank in [0, n): Rank of one rng->NextDouble().
  int Sample(Rng* rng) const { return Rank(rng->NextDouble()); }

  /// The inverse CDF: the first rank k whose cumulative probability is
  /// >= u, for `u` in [0, 1).
  int Rank(double u) const;

  /// Probability of rank k.
  double Probability(int k) const;

  int n() const { return n_; }
  double theta() const { return theta_; }

 private:
  int n_;
  double theta_;
  std::vector<double> cumulative_;
  /// guide_[j] = first rank k with cumulative_[k] >= j / guide_.size();
  /// guide_.size() is a power of two, so u * size() is exact.
  std::vector<int> guide_;
};

}  // namespace airindex

#endif  // AIRINDEX_DES_ZIPF_H_

// Layer: 4 (dynamic) — see docs/ARCHITECTURE.md for the layer map.
#include "dynamic/mutation_log.h"

#include <cmath>

namespace airindex {

MutationLog::MutationLog(int universe_size, double rate, double zipf_theta,
                         std::uint64_t seed)
    : rate_(rate),
      rng_(seed),
      live_(static_cast<std::size_t>(universe_size), 1),
      versions_(static_cast<std::size_t>(universe_size), 0),
      live_count_(universe_size) {
  if (zipf_theta > 0.0 && universe_size > 0) {
    zipf_.emplace(universe_size, zipf_theta);
  }
}

const std::vector<MutationOp>& MutationLog::NextEpoch() {
  buffer_.clear();
  const auto n = static_cast<std::uint64_t>(live_.size());
  credit_ += rate_ * static_cast<double>(n);
  const auto draws = static_cast<std::int64_t>(std::floor(credit_));
  credit_ -= static_cast<double>(draws);
  for (std::int64_t d = 0; d < draws && n > 0; ++d) {
    const int r = zipf_ ? zipf_->Sample(&rng_) : static_cast<int>(rng_.NextBounded(n));
    MutationOp op;
    op.record_index = r;
    const auto index = static_cast<std::size_t>(r);
    if (live_[index] == 0) {
      op.kind = MutationOp::Kind::kInsert;
      live_[index] = 1;
      ++live_count_;
    } else if (live_count_ > 2 &&
               rng_.NextDouble() < kDynamicDeleteFraction) {
      op.kind = MutationOp::Kind::kDelete;
      live_[index] = 0;
      --live_count_;
    } else {
      op.kind = MutationOp::Kind::kUpdate;
    }
    op.version = ++versions_[index];
    buffer_.push_back(op);
  }
  ++epochs_;
  return buffer_;
}

}  // namespace airindex

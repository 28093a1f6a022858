// Layer: 4 (dynamic) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_DYNAMIC_MUTATION_LOG_H_
#define AIRINDEX_DYNAMIC_MUTATION_LOG_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "des/random.h"
#include "des/zipf.h"

namespace airindex {

/// Fraction of draws on a live record that delete it instead of
/// updating it. The analytical staleness model (analytical/
/// dynamic_model.h) duplicates this constant — analytical must not link
/// the dynamic layer — and a test pins the two values equal. The
/// steady-state live fraction it induces is 1 / (1 + delta).
inline constexpr double kDynamicDeleteFraction = 0.1;

/// One resolved server-side mutation.
struct MutationOp {
  enum class Kind { kInsert, kDelete, kUpdate };
  Kind kind = Kind::kUpdate;
  /// Index of the mutated record in the *universe* dataset (the full
  /// synthetic dataset; liveness decides what is actually on air).
  int record_index = 0;
  /// Record version after this op (versions start at 0 and every
  /// applied op bumps the target's version by one).
  std::int64_t version = 0;
};

/// Deterministic server-side mutation stream over a fixed record
/// universe.
///
/// Time is sliced into epochs (one initial broadcast cycle each; see
/// DynamicRuntime). Every epoch draws `rate * universe_size` target
/// records — uniformly, or Zipf(zipf_theta) by record rank — and
/// resolves each draw against current liveness: a dead record is
/// re-inserted, a live one is deleted with probability
/// kDynamicDeleteFraction (never below 3 live records) and updated
/// otherwise. Fractional per-epoch draw budgets accumulate exactly, so
/// the long-run rate is honoured for any `rate`.
///
/// The whole stream is a pure function of the constructor arguments.
/// The replication engine gives each replication its own log seeded
/// from the replication seed, which is what keeps --jobs bit-identity:
/// a replication's mutation history never depends on which worker runs
/// it or what ran before it.
class MutationLog {
 public:
  MutationLog(int universe_size, double rate, double zipf_theta,
              std::uint64_t seed);

  /// Generates and applies the next epoch's mutations. The returned
  /// buffer is valid until the next call.
  const std::vector<MutationOp>& NextEpoch();

  /// Liveness / version of a universe record under everything emitted
  /// so far.
  bool live(int record_index) const {
    return live_[static_cast<std::size_t>(record_index)] != 0;
  }
  std::int64_t version(int record_index) const {
    return versions_[static_cast<std::size_t>(record_index)];
  }

  int universe_size() const { return static_cast<int>(live_.size()); }
  int live_count() const { return live_count_; }
  std::int64_t epochs() const { return epochs_; }

 private:
  double rate_;
  Rng rng_;
  std::optional<ZipfDistribution> zipf_;  // empty = uniform targeting
  std::vector<std::uint8_t> live_;
  std::vector<std::int64_t> versions_;
  int live_count_ = 0;
  /// Fractional draw budget carried between epochs.
  double credit_ = 0.0;
  std::int64_t epochs_ = 0;
  std::vector<MutationOp> buffer_;
};

}  // namespace airindex

#endif  // AIRINDEX_DYNAMIC_MUTATION_LOG_H_

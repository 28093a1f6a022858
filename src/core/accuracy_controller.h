#ifndef AIRINDEX_CORE_ACCURACY_CONTROLLER_H_
#define AIRINDEX_CORE_ACCURACY_CONTROLLER_H_

#include "stats/confidence.h"

namespace airindex {

/// The testbed's AccuracyController (paper Section 3): "the simulation
/// process will not terminate unless the expected accuracy is achieved".
///
/// One observation per round (the round's mean) for each metric; the run
/// may stop once BOTH metrics satisfy the Student-t relative-half-width
/// rule at the configured level and accuracy, subject to the min/max
/// round bounds the Simulator enforces.
class AccuracyController {
 public:
  AccuracyController(double confidence_level, double target_accuracy)
      : access_(confidence_level, target_accuracy),
        tuning_(confidence_level, target_accuracy) {}

  /// Feeds one completed round's means.
  void AddRound(double access_mean, double tuning_mean) {
    access_.AddObservation(access_mean);
    tuning_.AddObservation(tuning_mean);
  }

  /// Merges another controller's rounds into this one. See
  /// ConfidenceEstimator::Merge for the ordering requirement that keeps
  /// merged stopping decisions bit-identical.
  void Merge(const AccuracyController& other) {
    access_.Merge(other.access_);
    tuning_.Merge(other.tuning_);
  }

  /// Number of rounds observed.
  int rounds() const { return access_.count(); }

  /// True when both metrics meet the accuracy target.
  bool Satisfied() const {
    return access_.Check().satisfied && tuning_.Check().satisfied;
  }

  /// The Simulator's stopping rule: stop once at least `min_rounds`
  /// rounds satisfy the accuracy target, or at `max_rounds` regardless.
  /// The replication engine and bench_merge's shard replay both stop
  /// through this, which keeps a merged sharded run bit-identical to the
  /// unsharded one.
  bool ShouldStop(int min_rounds, int max_rounds) const {
    return (rounds() >= min_rounds && Satisfied()) || rounds() >= max_rounds;
  }

  /// Current checks, for reporting.
  ConfidenceCheck access_check() const { return access_.Check(); }
  ConfidenceCheck tuning_check() const { return tuning_.Check(); }

 private:
  ConfidenceEstimator access_;
  ConfidenceEstimator tuning_;
};

}  // namespace airindex

#endif  // AIRINDEX_CORE_ACCURACY_CONTROLLER_H_

#ifndef AIRINDEX_SCHEMES_HASHING_H_
#define AIRINDEX_SCHEMES_HASHING_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/channel.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"

namespace airindex {

/// Simple hashing (Imielinski et al., EDBT'94; paper Section 2.2).
///
/// No separate index buckets: every data bucket carries a control part
/// with the hash function and a shift value. Na slots are allocated;
/// records hash to a slot and colliding records are inserted right after
/// their home bucket, shifting the rest — so the cycle has N = Na + Nc
/// buckets and records sit "out of place". The shift value stored at
/// position i points at the first bucket actually holding records whose
/// hash is i. Beyond position Na buckets only point at the next
/// broadcast.
class SimpleHashing : public BroadcastScheme {
 public:
  /// Builds the channel. `allocation_factor` scales the slot count:
  /// Na = round(factor * Nr), at least 1. The paper's setup corresponds
  /// to factor 1.0.
  static Result<SimpleHashing> Build(std::shared_ptr<const Dataset> dataset,
                                     const BucketGeometry& geometry,
                                     double allocation_factor = 1.0);

  /// Reattaches a channel inflated from a program arena. `allocated` is
  /// the resolved slot count Na recorded at flatten time.
  /// `arena` is the program `channel` was inflated from; the scheme
  /// walks it and keeps it alive.
  static Result<SimpleHashing> Restore(
      std::shared_ptr<const Dataset> dataset, Channel channel,
      std::shared_ptr<const ProgramArena> arena, int allocated);

  const Channel& channel() const override { return channel_; }
  const char* name() const override { return "simple hashing"; }

  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Number of allocated slots Na.
  int allocated() const { return allocated_; }

  /// Number of colliding (displaced) records Nc; the cycle has
  /// Na + Nc buckets.
  int colliding() const {
    return static_cast<int>(channel_.num_buckets()) - allocated_;
  }

  /// The scheme's hash function: slot of `key` in [0, allocated()).
  std::int64_t HashKey(std::string_view key) const;

 private:
  SimpleHashing(std::shared_ptr<const Dataset> dataset, Channel channel,
                int allocated,
                std::shared_ptr<const ProgramArena> arena = nullptr)
      : dataset_(std::move(dataset)),
        channel_(std::move(channel)),
        allocated_(allocated),
        walk_(channel_, std::move(arena)) {}

  std::shared_ptr<const Dataset> dataset_;
  Channel channel_;
  int allocated_;
  ArenaWalk walk_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_HASHING_H_

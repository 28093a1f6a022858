#ifndef AIRINDEX_SCHEMES_FLAT_H_
#define AIRINDEX_SCHEMES_FLAT_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/channel.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"
#include "schemes/filter.h"

namespace airindex {

/// Flat (plain) broadcast — the paper's baseline with no access method.
///
/// The channel is simply every data record in key order. The client has
/// nothing to selectively tune with, so it listens to every bucket until
/// the requested record arrives: best possible access time (no index
/// overhead in the cycle) but tuning time equal to access time — "the
/// worst tuning time" (Section 4.2).
class FlatBroadcast : public BroadcastScheme {
 public:
  /// Builds the flat channel over `dataset`.
  static Result<FlatBroadcast> Build(std::shared_ptr<const Dataset> dataset,
                                     const BucketGeometry& geometry);

  /// Reattaches a channel inflated from a program arena (the scheme
  /// holds no derived state beyond the channel). Validates that the
  /// channel covers the dataset.
  /// `arena` is the program `channel` was inflated from; the scheme
  /// walks it and keeps it alive.
  static Result<FlatBroadcast> Restore(
      std::shared_ptr<const Dataset> dataset, Channel channel,
      std::shared_ptr<const ProgramArena> arena);

  const Channel& channel() const override { return channel_; }
  const char* name() const override { return "flat broadcast"; }

  /// Closed-form protocol walk (O(log Nr): one dataset lookup).
  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Bucket-by-bucket reference implementation of the same protocol.
  /// Used by property tests to pin the fast path; O(Nr) per call.
  AccessResult AccessReference(std::string_view key, Bytes tune_in) const;

  /// Attribute filtering baseline: with no signatures to sift, the
  /// client must listen to every data bucket of one full cycle.
  FilterResult Filter(std::string_view value, Bytes tune_in) const;

 private:
  FlatBroadcast(std::shared_ptr<const Dataset> dataset, Channel channel,
                std::shared_ptr<const ProgramArena> arena = nullptr)
      : dataset_(std::move(dataset)),
        channel_(std::move(channel)),
        walk_(channel_, std::move(arena)) {}

  std::shared_ptr<const Dataset> dataset_;
  Channel channel_;
  ArenaWalk walk_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_FLAT_H_

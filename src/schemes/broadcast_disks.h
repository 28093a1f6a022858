#ifndef AIRINDEX_SCHEMES_BROADCAST_DISKS_H_
#define AIRINDEX_SCHEMES_BROADCAST_DISKS_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "broadcast/channel.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"

namespace airindex {

/// Layout parameters of a multi-disk broadcast.
struct BroadcastDisksParams {
  /// Fraction of the (popularity-ordered) records on each disk, hottest
  /// first. Must sum to ~1. Default: a small hot disk, a warm disk, and
  /// a large cold disk.
  std::vector<double> disk_fractions = {0.10, 0.30, 0.60};
  /// Relative broadcast frequency of each disk (same length as
  /// disk_fractions, non-increasing). Every frequency must divide the
  /// first (hottest) one — the classic algorithm's chunking requirement.
  std::vector<int> disk_frequencies = {4, 2, 1};
};

/// Broadcast disks (Acharya, Alonso, Franklin & Zdonik, SIGMOD'95) — a
/// scheduling extension beyond the paper's flat broadcast: records are
/// assigned to "disks" by popularity and hot disks are interleaved at a
/// higher frequency, trading cold-record access time for hot-record
/// access time. The client protocol is flat broadcast's (no index; scan
/// until the record arrives), so tuning equals access; the win appears
/// only under a skewed request distribution (TestbedConfig::zipf_theta).
///
/// Layout: disk d is split into max_freq/freq_d chunks; the major cycle
/// is max_freq minor cycles, the i-th containing chunk (i mod chunks_d)
/// of every disk d.
class BroadcastDisks : public BroadcastScheme {
 public:
  /// Builds the multi-disk schedule. Records are assumed to be in
  /// popularity order (record 0 hottest), matching the Zipf request
  /// generator's rank order.
  static Result<BroadcastDisks> Build(std::shared_ptr<const Dataset> dataset,
                                      const BucketGeometry& geometry,
                                      BroadcastDisksParams params = {});

  /// Reattaches a channel inflated from a program arena. The per-record
  /// occurrence table is recovered by one scan of the channel (Build
  /// emits occurrences in phase order) and the record→disk map is
  /// recomputed from `params` with Build's assignment rule.
  /// `arena` is the program `channel` was inflated from; the scheme
  /// walks it and keeps it alive.
  static Result<BroadcastDisks> Restore(
      std::shared_ptr<const Dataset> dataset, BroadcastDisksParams params,
      Channel channel, std::shared_ptr<const ProgramArena> arena);

  const Channel& channel() const override { return channel_; }
  const char* name() const override { return "broadcast disks"; }

  /// Closed-form flat-scan walk using the per-record occurrence table.
  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Bucket-by-bucket reference walker (property tests).
  AccessResult AccessReference(std::string_view key, Bytes tune_in) const;

  /// Number of times `record` appears in one major cycle.
  int OccurrencesOf(int record) const;

  /// Disk index of a record.
  int DiskOf(int record) const;

  const BroadcastDisksParams& params() const { return params_; }

 private:
  BroadcastDisks(std::shared_ptr<const Dataset> dataset,
                 BroadcastDisksParams params, Channel channel,
                 std::vector<std::vector<Bytes>> occurrences,
                 std::vector<int> disk_of,
                 std::shared_ptr<const ProgramArena> arena = nullptr);

  std::shared_ptr<const Dataset> dataset_;
  BroadcastDisksParams params_;
  Channel channel_;
  /// Per record: sorted start phases of its buckets in the major cycle.
  std::vector<std::vector<Bytes>> occurrences_;
  std::vector<int> disk_of_;
  ArenaWalk walk_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_BROADCAST_DISKS_H_

#ifndef AIRINDEX_SCHEMES_DISTRIBUTED_H_
#define AIRINDEX_SCHEMES_DISTRIBUTED_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/channel.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/btree.h"
#include "schemes/channel_view.h"
#include "schemes/trace.h"

namespace airindex {

/// Distributed indexing (Imielinski et al., SIGMOD'94; paper Section 2.1).
///
/// The index tree is split into a *replicated part* (the top r levels)
/// and a *non-replicated part* (the rest). The broadcast cycle is one
/// data segment per depth-r subtree; each data segment is preceded by an
/// index segment containing (a) the replicated ancestors that see the
/// first occurrence of one of their children here, and (b) the preorder
/// of the non-replicated subtree. Replicated buckets carry a *control
/// index* (next occurrence of each ancestor) so a client that tuned in
/// "too far right" can climb back up; the "K below the last broadcast
/// key" rule sends clients whose record already passed to the next cycle.
class DistributedIndexing : public BroadcastScheme {
 public:
  /// Builds the channel. `r` is the number of replicated levels, in
  /// [0, tree height - 1]; pass -1 to minimize the analytical access time
  /// (the paper's "optimal value of r as defined in [6]").
  static Result<DistributedIndexing> Build(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      int r = -1);

  /// Access-time-optimal replicated-level count for this configuration.
  static int OptimalR(int num_records, const BucketGeometry& geometry);

  /// Reattaches a channel inflated from a program arena. `r` and
  /// `num_segments` are the resolved values recorded at flatten time;
  /// the index tree is rebuilt deterministically.
  /// `arena` is the program `channel` was inflated from; the scheme
  /// walks it and keeps it alive.
  static Result<DistributedIndexing> Restore(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      Channel channel, std::shared_ptr<const ProgramArena> arena, int r,
      int num_segments);

  const Channel& channel() const override { return channel_; }
  const char* name() const override { return "distributed indexing"; }

  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// As Access — the same walk, given a TraceSink — additionally
  /// appending one ProbeEvent per protocol step to `trace` (pass nullptr
  /// to disable). Exposes the walk — waits, probes, climbs, restarts,
  /// dozes — for debugging and for the trace_explorer example.
  AccessResult AccessTraced(std::string_view key, Bytes tune_in,
                            AccessTrace* trace) const;

  /// Replicated-level count actually used.
  int replicated_levels() const { return r_; }

  /// Number of data segments (== index segments) in the cycle.
  int num_segments() const { return num_segments_; }

  /// The underlying index tree (exposed for tests and benches).
  const BTree& tree() const { return tree_; }

 private:
  DistributedIndexing(std::shared_ptr<const Dataset> dataset, BTree tree,
                      Channel channel, int r, int num_segments,
                      std::shared_ptr<const ProgramArena> arena = nullptr)
      : dataset_(std::move(dataset)),
        tree_(std::move(tree)),
        channel_(std::move(channel)),
        r_(r),
        num_segments_(num_segments),
        walk_(channel_, std::move(arena)) {}

  std::shared_ptr<const Dataset> dataset_;
  BTree tree_;
  Channel channel_;
  int r_;
  int num_segments_;
  ArenaWalk walk_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_DISTRIBUTED_H_

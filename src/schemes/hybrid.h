#ifndef AIRINDEX_SCHEMES_HYBRID_H_
#define AIRINDEX_SCHEMES_HYBRID_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/channel.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/btree.h"
#include "schemes/channel_view.h"
#include "schemes/filter.h"
#include "schemes/signature.h"

namespace airindex {

/// Hybrid index + signature indexing, after Hu, Lee & Lee (CIKM'99 /
/// ICDE'00) — the paper's references [3] and [4]: "indexing schemes
/// taking advantages of both index tree and signature indexing
/// techniques".
///
/// Records are clustered into groups of G. A B+ tree indexes *groups*
/// (not records), and the full tree is broadcast m times per cycle,
/// (1,m)-style; each group is broadcast as [record signature, data] x G.
/// A key lookup descends the tree to the covering group (few probes,
/// cheap absence detection — the tree advantages) and then sifts the
/// group's record signatures (the signature advantages: tiny index
/// overhead per record, and attribute filtering still works).
///
/// Compared to (1,m) over records, the tree is a factor ~G smaller, so
/// the cycle — and with it access time — shrinks; tuning pays an extra
/// ~G/2 signature reads inside the group.
class HybridIndexing : public BroadcastScheme {
 public:
  /// Builds the channel. `group_size` G >= 1; `m` = tree replication
  /// count (0 = sqrt rule on the group tree).
  static Result<HybridIndexing> Build(std::shared_ptr<const Dataset> dataset,
                                      const BucketGeometry& geometry,
                                      SignatureParams params = {},
                                      int group_size = 16, int m = 0);

  /// Reattaches a channel inflated from a program arena. `group_size`
  /// and `m` are the resolved values recorded at flatten time; the
  /// group tree is rebuilt deterministically.
  /// `arena` is the program `channel` was inflated from; the scheme
  /// walks it and keeps it alive.
  static Result<HybridIndexing> Restore(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params, Channel channel,
      std::shared_ptr<const ProgramArena> arena, int group_size, int m);

  const Channel& channel() const override { return channel_; }
  const char* name() const override { return "hybrid index+signature"; }

  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Attribute filtering over the grouped layout: the client still sifts
  /// every record signature of one cycle, dozing over data buckets and
  /// index segments.
  FilterResult Filter(std::string_view value, Bytes tune_in) const;

  int group_size() const { return group_size_; }
  int m() const { return m_; }
  const BTree& tree() const { return tree_; }

 private:
  HybridIndexing(std::shared_ptr<const Dataset> dataset,
                 SignatureGenerator generator, BTree tree, Channel channel,
                 int group_size, int m,
                 std::shared_ptr<const ProgramArena> arena = nullptr)
      : dataset_(std::move(dataset)),
        generator_(generator),
        tree_(std::move(tree)),
        channel_(std::move(channel)),
        group_size_(group_size),
        m_(m),
        walk_(channel_, std::move(arena)) {}

  std::shared_ptr<const Dataset> dataset_;
  SignatureGenerator generator_;
  BTree tree_;  // indexes groups: "record" i of the tree is group i
  Channel channel_;
  int group_size_;
  int m_;
  ArenaWalk walk_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_HYBRID_H_

#ifndef AIRINDEX_SCHEMES_MULTILEVEL_SIGNATURE_H_
#define AIRINDEX_SCHEMES_MULTILEVEL_SIGNATURE_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/channel.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"
#include "schemes/signature.h"

namespace airindex {

/// Multi-level signature indexing (Lee & Lee, DPDB'96) — the second
/// extension scheme beyond the paper's simple-signature comparison.
///
/// Two signature levels: a *group* signature (the superimposition of G
/// record signatures) precedes each group, and every data bucket is
/// still preceded by its own *record* signature. A client sifts group
/// signatures and dozes over entire groups that cannot match; inside a
/// matching group it sifts record signatures like the simple scheme.
/// This buys most of simple signature's precision at a fraction of its
/// tuning cost for non-matching stretches.
class MultiLevelSignatureIndexing : public BroadcastScheme {
 public:
  static Result<MultiLevelSignatureIndexing> Build(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params = SignatureParams(), int group_size = 16);

  /// Reattaches a channel inflated from a program arena; both
  /// generators are reconstructed from geometry + params.
  /// `arena` is the program `channel` was inflated from; the scheme
  /// walks it and keeps it alive.
  static Result<MultiLevelSignatureIndexing> Restore(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params, Channel channel,
      std::shared_ptr<const ProgramArena> arena, int group_size);

  const Channel& channel() const override { return channel_; }
  const char* name() const override { return "multi-level signature"; }

  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Records per group signature.
  int group_size() const { return group_size_; }

 private:
  MultiLevelSignatureIndexing(std::shared_ptr<const Dataset> dataset,
                              SignatureGenerator record_generator,
                              SignatureGenerator group_generator,
                              Channel channel, int group_size,
                              std::shared_ptr<const ProgramArena> arena =
                                  nullptr)
      : dataset_(std::move(dataset)),
        record_generator_(record_generator),
        group_generator_(group_generator),
        channel_(std::move(channel)),
        group_size_(group_size),
        walk_(channel_, std::move(arena)) {}

  std::shared_ptr<const Dataset> dataset_;
  /// Record-level signatures (geometry.signature_bytes wide).
  SignatureGenerator record_generator_;
  /// Group-level signatures (wider; see ResolveGroupSignatureBytes).
  SignatureGenerator group_generator_;
  Channel channel_;
  int group_size_;
  ArenaWalk walk_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_MULTILEVEL_SIGNATURE_H_

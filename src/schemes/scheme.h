// Layer: 4 (schemes) — see docs/ARCHITECTURE.md for the layer map.
#ifndef AIRINDEX_SCHEMES_SCHEME_H_
#define AIRINDEX_SCHEMES_SCHEME_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "broadcast/arena.h"
#include "broadcast/geometry.h"
#include "broadcast/schedule.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/broadcast_disks.h"
#include "schemes/signature.h"

namespace airindex {

/// The data access methods the testbed can evaluate.
enum class SchemeKind {
  kFlat,
  kOneM,
  kDistributed,
  kHashing,
  kSignature,
  kIntegratedSignature,
  kMultiLevelSignature,
  kBroadcastDisks,
  kHybrid,
};

/// Short display name ("flat broadcast", "(1,m) indexing", ...).
const char* SchemeKindToString(SchemeKind kind);

/// Per-scheme tuning knobs; defaults reproduce the paper's setup
/// ("optimal" parameters where the paper says it used them).
struct SchemeParams {
  /// (1,m): index replication count; 0 = optimal m*.
  int one_m_m = 0;
  /// Distributed: replicated levels; -1 = access-optimal r.
  int distributed_r = -1;
  /// Hashing: Na = round(factor * Nr).
  double hashing_allocation_factor = 1.0;
  /// Signature family: bits set per attribute.
  int signature_bits_per_attribute = 8;
  /// Integrated/multi-level signature: records per signature group.
  int signature_group_size = 16;
  /// Broadcast disks: disk layout and relative frequencies.
  BroadcastDisksParams broadcast_disks;
  /// Hybrid index+signature: tree replication count (0 = sqrt rule).
  int hybrid_m = 0;
  /// Slot scheduler (broadcast/schedule.h). kFlat — the default — keeps
  /// every scheme's committed layout untouched; kSquareRoot/kOnline route
  /// the build through the skew-aware scheduled program
  /// (schemes/scheduled.h) with this scheme kind's index family.
  ScheduleParams schedule;
};

/// Builds a ready-to-query broadcast program for `kind` over `dataset`.
Result<std::unique_ptr<BroadcastScheme>> BuildScheme(
    SchemeKind kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params = {});

/// Flattens a built single-channel scheme program into one relocatable
/// arena buffer: the channel's buckets plus the scheme's resolved
/// scalars (its aux section), tagged with `kind` and the two cache
/// fingerprints. `scheme` must be the concrete scheme BuildScheme(kind,
/// ...) produced — a kind mismatch is an InvalidArgument, not UB.
Result<ProgramArena> FlattenSchemeProgram(SchemeKind kind,
                                          const BroadcastScheme& scheme,
                                          std::uint64_t dataset_fingerprint,
                                          std::uint64_t params_fingerprint);

/// Rebuilds a ready-to-query scheme from a flattened arena without
/// re-running the channel construction: the channel is inflated from the
/// arena (bucket key views point into the arena's string pool — the
/// returned scheme co-owns `arena` to keep them alive) and cheap
/// deterministic auxiliaries (index trees, signature generators,
/// bit-sliced signature files, occurrence maps) are reconstructed from
/// `dataset`, `geometry`, `params` and the arena's aux scalars. Observably
/// identical to the freshly built scheme: every Access() walk returns
/// the same result, so simulation output stays bit-identical.
Result<std::unique_ptr<BroadcastScheme>> RestoreSchemeFromArena(
    std::shared_ptr<const ProgramArena> arena,
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    const SchemeParams& params);

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_SCHEME_H_

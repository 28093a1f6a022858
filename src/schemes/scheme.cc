#include "schemes/scheme.h"

#include <utility>

#include "schemes/broadcast_disks.h"
#include "schemes/distributed.h"
#include "schemes/flat.h"
#include "schemes/hashing.h"
#include "schemes/hybrid.h"
#include "schemes/integrated_signature.h"
#include "schemes/multilevel_signature.h"
#include "schemes/one_m.h"
#include "schemes/scheduled.h"

namespace airindex {

const char* SchemeKindToString(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kFlat:
      return "flat broadcast";
    case SchemeKind::kOneM:
      return "(1,m) indexing";
    case SchemeKind::kDistributed:
      return "distributed indexing";
    case SchemeKind::kHashing:
      return "simple hashing";
    case SchemeKind::kSignature:
      return "signature indexing";
    case SchemeKind::kIntegratedSignature:
      return "integrated signature";
    case SchemeKind::kMultiLevelSignature:
      return "multi-level signature";
    case SchemeKind::kBroadcastDisks:
      return "broadcast disks";
    case SchemeKind::kHybrid:
      return "hybrid index+signature";
  }
  return "unknown";
}

namespace {

template <typename T>
Result<std::unique_ptr<BroadcastScheme>> Wrap(Result<T> built) {
  if (!built.ok()) return built.status();
  return std::unique_ptr<BroadcastScheme>(
      std::make_unique<T>(std::move(built).value()));
}

SignatureParams SignatureParamsOf(const SchemeParams& params) {
  SignatureParams signature_params;
  signature_params.bits_per_attribute = params.signature_bits_per_attribute;
  return signature_params;
}

}  // namespace

Result<std::unique_ptr<BroadcastScheme>> BuildScheme(
    SchemeKind kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params) {
  if (params.schedule.active()) {
    // An active scheduler reroutes every kind through the skew-aware
    // scheduled program, which reuses the kind's index family over the
    // square-root-rule slot schedule.
    return Wrap(ScheduledBroadcast::Build(kind, std::move(dataset), geometry,
                                          params));
  }
  switch (kind) {
    case SchemeKind::kFlat:
      return Wrap(FlatBroadcast::Build(std::move(dataset), geometry));
    case SchemeKind::kOneM:
      return Wrap(
          OneMIndexing::Build(std::move(dataset), geometry, params.one_m_m));
    case SchemeKind::kDistributed:
      return Wrap(DistributedIndexing::Build(std::move(dataset), geometry,
                                             params.distributed_r));
    case SchemeKind::kHashing:
      return Wrap(SimpleHashing::Build(std::move(dataset), geometry,
                                       params.hashing_allocation_factor));
    case SchemeKind::kSignature:
      return Wrap(SignatureIndexing::Build(std::move(dataset), geometry,
                                           SignatureParamsOf(params)));
    case SchemeKind::kIntegratedSignature:
      return Wrap(IntegratedSignatureIndexing::Build(
          std::move(dataset), geometry, SignatureParamsOf(params),
          params.signature_group_size));
    case SchemeKind::kMultiLevelSignature:
      return Wrap(MultiLevelSignatureIndexing::Build(
          std::move(dataset), geometry, SignatureParamsOf(params),
          params.signature_group_size));
    case SchemeKind::kBroadcastDisks:
      return Wrap(BroadcastDisks::Build(std::move(dataset), geometry,
                                        params.broadcast_disks));
    case SchemeKind::kHybrid:
      return Wrap(HybridIndexing::Build(std::move(dataset), geometry,
                                        SignatureParamsOf(params),
                                        params.signature_group_size,
                                        params.hybrid_m));
  }
  return Status::InvalidArgument("unknown scheme kind");
}

Result<ProgramArena> FlattenSchemeProgram(SchemeKind kind,
                                          const BroadcastScheme& scheme,
                                          std::uint64_t dataset_fingerprint,
                                          std::uint64_t params_fingerprint) {
  // A scheduled program flattens its resolved assignment instead of the
  // base kind's scalars; kAuxTag keeps the two aux layouts unmistakable.
  if (const auto* scheduled = dynamic_cast<const ScheduledBroadcast*>(&scheme)) {
    const std::vector<int>& order = scheduled->assignment().record_order;
    for (std::size_t p = 0; p < order.size(); ++p) {
      if (order[p] != static_cast<int>(p)) {
        return Status::InvalidArgument(
            "flatten: online-evolved scheduled programs are not cacheable");
      }
    }
    return ProgramArena::Flatten({&scheme.channel()}, /*switch_cost_bytes=*/0,
                                 static_cast<int>(kind), dataset_fingerprint,
                                 params_fingerprint, scheduled->FlattenAux());
  }
  // Aux layout per kind (see RestoreSchemeFromArena, which consumes it):
  // the scheme's *resolved* scalars — values Build may have derived from
  // "auto" params (m* rules, optimal r, rounded slot counts) that the
  // restore path must not re-derive differently.
  std::vector<std::int64_t> aux;
  switch (kind) {
    case SchemeKind::kFlat:
    case SchemeKind::kSignature:
    case SchemeKind::kBroadcastDisks:
      break;  // fully reconstructible from dataset + params + channel
    case SchemeKind::kOneM: {
      const auto* one_m = dynamic_cast<const OneMIndexing*>(&scheme);
      if (one_m == nullptr) break;
      aux = {one_m->m()};
      break;
    }
    case SchemeKind::kDistributed: {
      const auto* distributed =
          dynamic_cast<const DistributedIndexing*>(&scheme);
      if (distributed == nullptr) break;
      aux = {distributed->replicated_levels(), distributed->num_segments()};
      break;
    }
    case SchemeKind::kHashing: {
      const auto* hashing = dynamic_cast<const SimpleHashing*>(&scheme);
      if (hashing == nullptr) break;
      aux = {hashing->allocated()};
      break;
    }
    case SchemeKind::kIntegratedSignature: {
      const auto* integrated =
          dynamic_cast<const IntegratedSignatureIndexing*>(&scheme);
      if (integrated == nullptr) break;
      aux = {integrated->group_size()};
      break;
    }
    case SchemeKind::kMultiLevelSignature: {
      const auto* multilevel =
          dynamic_cast<const MultiLevelSignatureIndexing*>(&scheme);
      if (multilevel == nullptr) break;
      aux = {multilevel->group_size()};
      break;
    }
    case SchemeKind::kHybrid: {
      const auto* hybrid = dynamic_cast<const HybridIndexing*>(&scheme);
      if (hybrid == nullptr) break;
      aux = {hybrid->group_size(), hybrid->m()};
      break;
    }
  }
  // Kinds with scalars must have matched their concrete type above.
  const bool needs_aux =
      kind != SchemeKind::kFlat && kind != SchemeKind::kSignature &&
      kind != SchemeKind::kBroadcastDisks;
  if (needs_aux && aux.empty()) {
    return Status::InvalidArgument(
        std::string("flatten: scheme is not a ") + SchemeKindToString(kind));
  }
  return ProgramArena::Flatten({&scheme.channel()}, /*switch_cost_bytes=*/0,
                               static_cast<int>(kind), dataset_fingerprint,
                               params_fingerprint, aux);
}

Result<std::unique_ptr<BroadcastScheme>> RestoreSchemeFromArena(
    std::shared_ptr<const ProgramArena> arena,
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    const SchemeParams& params) {
  if (arena == nullptr) {
    return Status::InvalidArgument("restore: null arena");
  }
  if (arena->num_channels() != 1) {
    return Status::InvalidArgument(
        "restore: scheme programs are single-channel, arena carries " +
        std::to_string(arena->num_channels()));
  }
  const int kind_int = arena->scheme_kind();
  if (kind_int < static_cast<int>(SchemeKind::kFlat) ||
      kind_int > static_cast<int>(SchemeKind::kHybrid)) {
    return Status::InvalidArgument("restore: arena has no valid scheme tag");
  }
  const SchemeKind kind = static_cast<SchemeKind>(kind_int);
  Result<std::vector<Channel>> channels = arena->InflateChannels();
  if (!channels.ok()) return channels.status();
  Channel channel = std::move(channels.value().front());
  const std::vector<std::int64_t> aux = arena->aux();
  const auto aux_int = [&aux](std::size_t i) {
    return static_cast<int>(aux[i]);
  };
  const auto check_aux = [&aux, kind](std::size_t want) -> Status {
    if (aux.size() != want) {
      return Status::InvalidArgument(
          std::string("restore: ") + SchemeKindToString(kind) + " expects " +
          std::to_string(want) + " aux scalars, arena carries " +
          std::to_string(aux.size()));
    }
    return Status::Ok();
  };

  // Every concrete Restore binds `arena` as its walk surface, which also
  // keeps alive the string pool the inflated channel's key views point
  // into.
  if (params.schedule.active()) {
    return Wrap(ScheduledBroadcast::Restore(kind, std::move(dataset),
                                            geometry, params,
                                            std::move(channel),
                                            std::move(arena), aux));
  }
  switch (kind) {
    case SchemeKind::kFlat: {
      Status s = check_aux(0);
      if (!s.ok()) return s;
      return Wrap(FlatBroadcast::Restore(dataset, std::move(channel),
                                         std::move(arena)));
    }
    case SchemeKind::kOneM: {
      Status s = check_aux(1);
      if (!s.ok()) return s;
      return Wrap(OneMIndexing::Restore(dataset, geometry, std::move(channel),
                                        std::move(arena), aux_int(0)));
    }
    case SchemeKind::kDistributed: {
      Status s = check_aux(2);
      if (!s.ok()) return s;
      return Wrap(DistributedIndexing::Restore(
          dataset, geometry, std::move(channel), std::move(arena), aux_int(0),
          aux_int(1)));
    }
    case SchemeKind::kHashing: {
      Status s = check_aux(1);
      if (!s.ok()) return s;
      return Wrap(SimpleHashing::Restore(dataset, std::move(channel),
                                         std::move(arena), aux_int(0)));
    }
    case SchemeKind::kSignature: {
      Status s = check_aux(0);
      if (!s.ok()) return s;
      return Wrap(SignatureIndexing::Restore(dataset, geometry,
                                             SignatureParamsOf(params),
                                             std::move(channel),
                                             std::move(arena)));
    }
    case SchemeKind::kIntegratedSignature: {
      Status s = check_aux(1);
      if (!s.ok()) return s;
      return Wrap(IntegratedSignatureIndexing::Restore(
          dataset, geometry, SignatureParamsOf(params), std::move(channel),
          std::move(arena), aux_int(0)));
    }
    case SchemeKind::kMultiLevelSignature: {
      Status s = check_aux(1);
      if (!s.ok()) return s;
      return Wrap(MultiLevelSignatureIndexing::Restore(
          dataset, geometry, SignatureParamsOf(params), std::move(channel),
          std::move(arena), aux_int(0)));
    }
    case SchemeKind::kBroadcastDisks: {
      Status s = check_aux(0);
      if (!s.ok()) return s;
      return Wrap(BroadcastDisks::Restore(dataset, params.broadcast_disks,
                                          std::move(channel),
                                          std::move(arena)));
    }
    case SchemeKind::kHybrid: {
      Status s = check_aux(2);
      if (!s.ok()) return s;
      return Wrap(HybridIndexing::Restore(
          dataset, geometry, SignatureParamsOf(params), std::move(channel),
          std::move(arena), aux_int(0), aux_int(1)));
    }
  }
  return Status::InvalidArgument("unknown scheme kind");
}

}  // namespace airindex

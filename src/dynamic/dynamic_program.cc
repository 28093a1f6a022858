// Layer: 4 (dynamic) — see docs/ARCHITECTURE.md for the layer map.
#include "dynamic/dynamic_program.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "data/record.h"
#include "des/random.h"

namespace airindex {

namespace {

/// Rewrites a record's attributes in place into their deterministic
/// mutated values: same width, lowercase letters, each derived from
/// (original value, record version). Version 0 is the original and
/// leaves them untouched; any later version produces different strings,
/// which is what makes a mutated dataset change its content fingerprint
/// (core/program_cache.h, DatasetFingerprint).
///
/// Each attribute is one serial chain — FNV-1a over the original, then
/// one Mix64 per output character — so a single chain waits on every
/// multiply. The chains of different attributes are independent and
/// advance kLanes at a time.
void MutateAttributes(std::int64_t version,
                      std::vector<std::string>* attributes) {
  if (version == 0) return;
  constexpr std::size_t kLanes = 4;
  const std::uint64_t salt =
      static_cast<std::uint64_t>(version) * 0x9e3779b97f4a7c15ULL;
  for (std::size_t first = 0; first < attributes->size(); first += kLanes) {
    std::uint64_t h[kLanes] = {};
    char* out[kLanes] = {};
    std::size_t width[kLanes] = {};
    std::size_t max_width = 0;
    for (std::size_t l = 0; l < kLanes && first + l < attributes->size();
         ++l) {
      std::string& attribute = (*attributes)[first + l];
      std::uint64_t x = 0xcbf29ce484222325ULL;
      for (const char c : attribute) {
        x = (x ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      }
      h[l] = x ^ salt;
      out[l] = attribute.data();
      width[l] = attribute.size();
      max_width = std::max(max_width, width[l]);
    }
    for (std::size_t c = 0; c < max_width; ++c) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        h[l] = Mix64(h[l]);  // lanes past their width churn unused
        if (c < width[l]) out[l][c] = static_cast<char>('a' + (h[l] % 26));
      }
    }
  }
}

}  // namespace

bool DynamicRuntime::PatchableScheme(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kFlat:
    case SchemeKind::kOneM:
    case SchemeKind::kDistributed:
      return true;
    default:
      return false;
  }
}

Status DynamicRuntime::Start(Params params) {
  if (params.update_rate <= 0.0) {
    active_ = false;
    return Status::Ok();
  }
  if (params.universe == nullptr || params.universe->size() <= 0) {
    return Status::InvalidArgument("dynamic runtime needs a universe dataset");
  }
  if (params.base_scheme == nullptr) {
    return Status::InvalidArgument("dynamic runtime needs a base program");
  }
  if (params.epoch_bytes <= 0) {
    return Status::InvalidArgument("dynamic runtime needs a positive epoch");
  }
  kind_ = params.kind;
  patchable_ = PatchableScheme(kind_);
  universe_ = std::move(params.universe);
  geometry_ = params.geometry;
  scheme_params_ = params.scheme_params;
  compact_every_ = params.compact_every;
  epoch_bytes_ = params.epoch_bytes;
  builder_ = params.builder
                 ? std::move(params.builder)
                 : [](SchemeKind kind, std::shared_ptr<const Dataset> dataset,
                      const BucketGeometry& geometry,
                      const SchemeParams& scheme_params) {
                     return BuildScheme(kind, std::move(dataset), geometry,
                                        scheme_params);
                   };
  live_scheme_ = params.base_scheme;
  owned_scheme_.reset();
  owned_dataset_.reset();
  log_ = std::make_unique<MutationLog>(universe_->size(), params.update_rate,
                                       params.update_zipf, params.seed);
  epochs_done_ = 0;
  const auto n = static_cast<std::size_t>(universe_->size());
  in_base_.assign(n, 1);
  base_version_.assign(n, 0);
  slot_free_.assign(n, 0);
  counters_ = DynamicCounters();
  compaction_failures_ = 0;
  active_ = true;
  return Status::Ok();
}

void DynamicRuntime::AdvanceTo(Bytes now) {
  if (!active_) return;
  const std::int64_t target = now / epoch_bytes_;
  while (epochs_done_ < target) {
    ApplyEpoch(log_->NextEpoch());
    ++epochs_done_;
    ++counters_.cycles;
    const bool compact =
        compact_every_ > 0 && epochs_done_ % compact_every_ == 0;
    if (compact && ForceCompact()) {
      ++counters_.rebuilt_cycles;
    } else {
      ++counters_.patched_cycles;
    }
  }
}

void DynamicRuntime::ApplyEpoch(const std::vector<MutationOp>& ops) {
  for (const MutationOp& op : ops) {
    ++counters_.mutations;
    const auto r = static_cast<std::size_t>(op.record_index);
    // A mutation is patched into its base slot when the record occupies
    // one and the scheme family supports in-place patching; everything
    // else rides the appended delta segment.
    bool append = true;
    switch (op.kind) {
      case MutationOp::Kind::kInsert:
        ++counters_.inserts;
        if (patchable_ && in_base_[r] != 0) {
          if (slot_free_[r] != 0) {
            slot_free_[r] = 0;
            ++counters_.freelist_pops;
          }
          append = false;
        }
        break;
      case MutationOp::Kind::kDelete:
        ++counters_.deletes;
        if (patchable_ && in_base_[r] != 0) {
          if (slot_free_[r] == 0) {
            slot_free_[r] = 1;
            ++counters_.freelist_pushes;
          }
          append = false;
        }
        break;
      case MutationOp::Kind::kUpdate:
        ++counters_.updates;
        if (patchable_ && in_base_[r] != 0) append = false;
        break;
    }
    if (append) ++counters_.delta_appends;
  }
}

AccessResult DynamicRuntime::Access(std::string_view key, Bytes tune_in) {
  AdvanceTo(tune_in);
  ++counters_.queries;
  AccessResult result = live_scheme_->Access(key, tune_in);
  const int r = universe_->FindIndex(key);
  if (r < 0) return result;
  const bool live = log_->live(r);
  const std::int64_t version = log_->version(r);
  const auto index = static_cast<std::size_t>(r);
  if (version != base_version_[index]) ++counters_.dirty_queries;
  // The record's answer lives in the delta segment when it exists
  // outside the base snapshot (born since the last compaction), or — for
  // the non-patchable families — when any mutation touched it since the
  // snapshot (their slots cannot be rewritten in place).
  const bool divergent =
      (live && in_base_[index] == 0) ||
      (!patchable_ && in_base_[index] != 0 && version != base_version_[index]);
  if (divergent) {
    // Finish the base walk, wait for the cycle boundary where the delta
    // segment rides, then read the delta directory and — when live —
    // the record itself. The unindexed segment cannot be dozed through,
    // so the extra buckets charge tuning as well as access.
    const Bytes cycle = live_scheme_->channel().cycle_bytes();
    const Bytes end = tune_in + result.access_time;
    const Bytes wait = cycle > 0 ? (cycle - (end % cycle)) % cycle : 0;
    const Bytes extra = geometry_.index_bucket_bytes() +
                        (live ? geometry_.data_bucket_bytes() : 0);
    result.found = live;
    result.access_time += wait + extra;
    result.tuning_time += extra;
    result.probes += live ? 2 : 1;
    ++result.index_probes;
    ++counters_.delta_reads;
    counters_.delta_read_bytes += extra;
    return result;
  }
  if (patchable_ && in_base_[index] != 0 && !live) {
    // In-place tombstone: the walk cost stands, the record does not.
    result.found = false;
  }
  return result;
}

bool DynamicRuntime::ExpectedOnAir(bool generated_on_air,
                                   std::string_view key, Bytes now) {
  AdvanceTo(now);
  if (!generated_on_air) return false;
  const int r = universe_->FindIndex(key);
  return r >= 0 && log_->live(r);
}

std::int64_t DynamicRuntime::VersionAt(int record_index, Bytes now) {
  AdvanceTo(now);
  if (record_index < 0 || record_index >= universe_->size()) return 0;
  return log_->version(record_index);
}

Result<std::shared_ptr<const Dataset>> DynamicRuntime::MaterializeDataset()
    const {
  if (!active_) {
    return Status::FailedPrecondition("dynamic runtime is inactive");
  }
  // One pass in universe (key) order: copy each live record and rewrite
  // its attributes in place. The output is already sorted, so
  // FromRecords only validates it and assigns the dense ids.
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(log_->live_count()));
  for (int r = 0; r < universe_->size(); ++r) {
    if (!log_->live(r)) continue;
    Record& record = records.emplace_back(universe_->record(r));
    MutateAttributes(log_->version(r), &record.attributes);
  }
  Result<Dataset> dataset = Dataset::FromRecords(std::move(records));
  if (!dataset.ok()) return dataset.status();
  return std::make_shared<const Dataset>(std::move(dataset).value());
}

bool DynamicRuntime::ForceCompact() {
  if (!active_) return false;
  Result<std::shared_ptr<const Dataset>> dataset = MaterializeDataset();
  if (!dataset.ok()) {
    ++compaction_failures_;
    return false;
  }
  Result<std::unique_ptr<BroadcastScheme>> built =
      builder_(kind_, dataset.value(), geometry_, scheme_params_);
  if (!built.ok()) {
    // Keep the previous live program (and its snapshot state) — a
    // failed rebuild degrades to more patching, never to a broken
    // channel.
    ++compaction_failures_;
    return false;
  }
  owned_scheme_ = std::move(built).value();
  owned_dataset_ = std::move(dataset).value();
  live_scheme_ = owned_scheme_.get();
  for (int r = 0; r < universe_->size(); ++r) {
    const auto index = static_cast<std::size_t>(r);
    in_base_[index] = log_->live(r) ? 1 : 0;
    base_version_[index] = log_->version(r);
    slot_free_[index] = 0;
  }
  return true;
}

}  // namespace airindex

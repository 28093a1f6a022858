#include "schemes/scheduled.h"

#include <algorithm>
#include <utility>

#include "schemes/btree.h"

namespace airindex {

namespace {

ScheduledSegmentStyle StyleForKind(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kFlat:
    case SchemeKind::kBroadcastDisks:
      return ScheduledSegmentStyle::kNone;
    case SchemeKind::kOneM:
    case SchemeKind::kDistributed:
    case SchemeKind::kHybrid:
      return ScheduledSegmentStyle::kTree;
    case SchemeKind::kHashing:
      return ScheduledSegmentStyle::kHash;
    case SchemeKind::kSignature:
    case SchemeKind::kIntegratedSignature:
    case SchemeKind::kMultiLevelSignature:
      return ScheduledSegmentStyle::kSignatureDir;
  }
  return ScheduledSegmentStyle::kNone;
}

/// One bucket of the canonical (pre-rotation) cycle; `segment_head` marks
/// the first bucket of an index segment instance.
struct SlotPlan {
  Bucket bucket;
  bool segment_head = false;
};

}  // namespace

Result<ScheduledBroadcast> ScheduledBroadcast::Build(
    SchemeKind base_kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "scheduled broadcast needs a non-empty dataset");
  }
  Result<DiskAssignment> assignment =
      ScheduleAssignmentFor(params.schedule, dataset->size());
  if (!assignment.ok()) return assignment.status();
  return Assemble(base_kind, std::move(dataset), geometry, params,
                  std::move(assignment).value(), nullptr, nullptr);
}

Result<ScheduledBroadcast> ScheduledBroadcast::BuildWithAssignment(
    SchemeKind base_kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params,
    DiskAssignment assignment) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "scheduled broadcast needs a non-empty dataset");
  }
  if (assignment.num_records() != dataset->size()) {
    return Status::InvalidArgument(
        "scheduled broadcast: assignment does not cover the dataset");
  }
  return Assemble(base_kind, std::move(dataset), geometry, params,
                  std::move(assignment), nullptr, nullptr);
}

Result<ScheduledBroadcast> ScheduledBroadcast::Restore(
    SchemeKind base_kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params,
    Channel channel, std::shared_ptr<const ProgramArena> arena,
    const std::vector<std::int64_t>& aux) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "scheduled restore needs a non-empty dataset");
  }
  if (aux.size() < 3 || aux[0] != kAuxTag) {
    return Status::InvalidArgument(
        "scheduled restore: arena aux is not a scheduled program");
  }
  const std::int64_t num_disks = aux[1];
  if (num_disks < 1 || num_disks > 64 ||
      aux.size() != 3 + 2 * static_cast<std::size_t>(num_disks)) {
    return Status::InvalidArgument(
        "scheduled restore: malformed assignment aux");
  }
  const int num_records = dataset->size();
  DiskAssignment assignment;
  assignment.disk_begin.assign(static_cast<std::size_t>(num_disks) + 1, 0);
  assignment.frequencies.assign(static_cast<std::size_t>(num_disks), 0);
  for (std::int64_t d = 0; d < num_disks; ++d) {
    assignment.disk_begin[static_cast<std::size_t>(d) + 1] =
        static_cast<int>(aux[2 + static_cast<std::size_t>(d)]);
    assignment.frequencies[static_cast<std::size_t>(d)] = static_cast<int>(
        aux[2 + static_cast<std::size_t>(num_disks + d)]);
  }
  for (std::int64_t d = 0; d < num_disks; ++d) {
    const int begin = assignment.disk_begin[static_cast<std::size_t>(d)];
    const int end = assignment.disk_begin[static_cast<std::size_t>(d) + 1];
    const int freq = assignment.frequencies[static_cast<std::size_t>(d)];
    const bool freq_ok =
        freq > 0 && freq <= assignment.frequencies.front() &&
        assignment.frequencies.front() % freq == 0 &&
        (d == 0 ||
         freq <= assignment.frequencies[static_cast<std::size_t>(d) - 1]);
    if (end <= begin || !freq_ok) {
      return Status::InvalidArgument(
          "scheduled restore: malformed assignment aux");
    }
  }
  if (assignment.disk_begin.back() != num_records) {
    return Status::InvalidArgument(
        "scheduled restore: assignment does not cover the dataset");
  }
  // The arena cache only ever stores planned programs (the online loop's
  // evolved rebuilds bypass it), so the record order is the identity.
  assignment.record_order.resize(static_cast<std::size_t>(num_records));
  for (int r = 0; r < num_records; ++r) {
    assignment.record_order[static_cast<std::size_t>(r)] = r;
  }
  SchemeParams resolved = params;
  resolved.schedule.rotation_slots = static_cast<int>(aux.back());
  return Assemble(base_kind, std::move(dataset), geometry, resolved,
                  std::move(assignment), &channel, std::move(arena));
}

Result<ScheduledBroadcast> ScheduledBroadcast::Assemble(
    SchemeKind base_kind, std::shared_ptr<const Dataset> dataset,
    const BucketGeometry& geometry, const SchemeParams& params,
    DiskAssignment assignment, Channel* existing,
    std::shared_ptr<const ProgramArena> arena) {
  const int num_records = dataset->size();
  const Bytes dt = geometry.data_bucket_bytes();

  const ScheduledSegmentStyle style = StyleForKind(base_kind);
  const int rotation_slots = params.schedule.rotation_slots;
  if (rotation_slots < 0) {
    return Status::InvalidArgument("rotation_slots must be >= 0");
  }

  // The index segment replicated at the head of every minor cycle. Every
  // bucket is the uniform data size, so slot arithmetic (and the
  // conflict-aware residue test) works in whole slots.
  std::vector<Bucket> segment;
  int tree_height = 0;
  int entries_per_bucket = 0;
  int probes_absent = 0;
  switch (style) {
    case ScheduledSegmentStyle::kNone:
      break;
    case ScheduledSegmentStyle::kTree: {
      Result<BTree> tree = BTree::Build(num_records, geometry.index_fanout());
      if (!tree.ok()) return tree.status();
      tree_height = tree.value().height();
      for (const int id : tree.value().PreorderSubtree(tree.value().root())) {
        const BTreeNode& node = tree.value().node(id);
        Bucket bucket;
        bucket.kind = BucketKind::kIndex;
        bucket.size = dt;
        bucket.level = node.level;
        bucket.range_lo = dataset->record(node.first_record).key;
        bucket.range_hi = dataset->record(node.last_record).key;
        segment.push_back(std::move(bucket));
      }
      probes_absent = tree_height;
      break;
    }
    case ScheduledSegmentStyle::kHash:
    case ScheduledSegmentStyle::kSignatureDir: {
      const Bytes entry_bytes =
          style == ScheduledSegmentStyle::kHash
              ? geometry.offset_bytes
              : geometry.signature_bytes + geometry.offset_bytes;
      entries_per_bucket = std::max<int>(1, static_cast<int>(dt / entry_bytes));
      const int buckets =
          (num_records + entries_per_bucket - 1) / entries_per_bucket;
      for (int b = 0; b < buckets; ++b) {
        const int first = b * entries_per_bucket;
        const int last =
            std::min(num_records, first + entries_per_bucket) - 1;
        Bucket bucket;
        bucket.size = dt;
        if (style == ScheduledSegmentStyle::kHash) {
          bucket.kind = BucketKind::kIndex;
          bucket.level = 0;
          bucket.range_lo = dataset->record(first).key;
          bucket.range_hi = dataset->record(last).key;
        } else {
          bucket.kind = BucketKind::kSignature;
        }
        segment.push_back(std::move(bucket));
      }
      probes_absent = style == ScheduledSegmentStyle::kHash
                          ? 1
                          : static_cast<int>(segment.size());
      break;
    }
  }

  // Canonical cycle: per minor cycle, the index segment then that minor's
  // data chunk (the chunked emission that keeps exact per-cycle
  // accounting).
  std::vector<SlotPlan> plan;
  {  // Scoped: the layout is freed before the scheme flattens its channel.
    const DiskLayout layout = BuildDiskLayout(assignment);
    const int minors = assignment.max_frequency();
    plan.reserve(layout.slot_record.size() +
                 segment.size() * static_cast<std::size_t>(minors));
    for (int minor = 0; minor < minors; ++minor) {
      for (std::size_t s = 0; s < segment.size(); ++s) {
        SlotPlan slot;
        slot.bucket = segment[s];
        slot.segment_head = s == 0;
        plan.push_back(std::move(slot));
      }
      for (int i = layout.minor_begin[static_cast<std::size_t>(minor)];
           i < layout.minor_begin[static_cast<std::size_t>(minor) + 1]; ++i) {
        SlotPlan slot;
        slot.bucket.kind = BucketKind::kData;
        slot.bucket.size = dt;
        slot.bucket.record_id =
            layout.slot_record[static_cast<std::size_t>(i)];
        plan.push_back(std::move(slot));
      }
    }
  }

  // Conflict-aware placement: the final sequence is the canonical one
  // rotated left, so co-channel programs stagger their hot slots.
  const int total = static_cast<int>(plan.size());
  const int rotation = rotation_slots % total;
  std::rotate(plan.begin(), plan.begin() + rotation, plan.end());

  std::vector<std::vector<Bytes>> occurrences(
      static_cast<std::size_t>(num_records));
  std::vector<std::vector<int>> record_buckets(
      static_cast<std::size_t>(num_records));
  std::vector<Bytes> segment_starts;
  for (int i = 0; i < total; ++i) {
    const SlotPlan& slot = plan[static_cast<std::size_t>(i)];
    if (slot.segment_head) {
      segment_starts.push_back(static_cast<Bytes>(i) * dt);
    }
    if (slot.bucket.kind == BucketKind::kData) {
      const auto record = static_cast<std::size_t>(slot.bucket.record_id);
      occurrences[record].push_back(static_cast<Bytes>(i) * dt);
      record_buckets[record].push_back(i);
    }
  }
  // Every bucket carries the offset to the next index segment (Fig. 2's
  // per-bucket pointer) as a cycle phase; wrapping past the cycle end
  // lands back on the first segment of the next cycle.
  if (!segment_starts.empty()) {
    for (int i = 0; i < total; ++i) {
      const Bytes phase = static_cast<Bytes>(i) * dt;
      const auto next = std::upper_bound(segment_starts.begin(),
                                         segment_starts.end(), phase);
      plan[static_cast<std::size_t>(i)].bucket.next_index_segment_phase =
          next != segment_starts.end() ? *next : segment_starts.front();
    }
  }

  if (existing != nullptr) {
    // Restore: validate the inflated channel slot-by-slot against the
    // recomputed plan instead of trusting the arena blindly.
    if (existing->num_buckets() != static_cast<std::size_t>(total)) {
      return Status::InvalidArgument(
          "scheduled restore: channel length does not match the plan");
    }
    for (int i = 0; i < total; ++i) {
      const Bucket& got = existing->bucket(static_cast<std::size_t>(i));
      const Bucket& want = plan[static_cast<std::size_t>(i)].bucket;
      if (got.kind != want.kind || got.size != want.size ||
          got.record_id != want.record_id || got.level != want.level) {
        return Status::InvalidArgument(
            "scheduled restore: channel does not match the planned layout");
      }
    }
  }
  Result<Channel> final_channel = [&]() -> Result<Channel> {
    if (existing != nullptr) return std::move(*existing);
    // Consumed here, so the plan's bucket shells are freed before the
    // scheme flattens the channel.
    std::vector<SlotPlan> consumed = std::move(plan);
    std::vector<Bucket> buckets;
    buckets.reserve(consumed.size());
    for (SlotPlan& slot : consumed) buckets.push_back(std::move(slot.bucket));
    return Channel::Create(std::move(buckets));
  }();
  if (!final_channel.ok()) return final_channel.status();

  ScheduledBroadcast scheme(std::move(final_channel).value(),
                            std::move(arena));
  scheme.style_ = style;
  scheme.rotation_slots_ = rotation_slots;
  scheme.tree_height_ = tree_height;
  scheme.entries_per_bucket_ = entries_per_bucket;
  scheme.probes_absent_ = probes_absent;
  scheme.segment_buckets_ = static_cast<int>(segment.size());
  scheme.occurrences_ = std::move(occurrences);
  scheme.record_buckets_ = std::move(record_buckets);
  scheme.segment_starts_ = std::move(segment_starts);
  scheme.dataset_ = std::move(dataset);
  scheme.name_ = std::string(
                     SchedulerKindToString(params.schedule.scheduler)) +
                 "-scheduled " + SchemeKindToString(base_kind);
  scheme.data_slots_ = assignment.SlotsPerMajorCycle();
  scheme.disk_of_ = assignment.DiskOfRecord();
  scheme.assignment_ = std::move(assignment);
  return scheme;
}

int ScheduledBroadcast::DescentProbes(int record) const {
  switch (style_) {
    case ScheduledSegmentStyle::kNone:
      return 0;
    case ScheduledSegmentStyle::kTree:
      return tree_height_;
    case ScheduledSegmentStyle::kHash:
      return 1;
    case ScheduledSegmentStyle::kSignatureDir:
      // The directory lists entries in record (key) order; the client
      // sifts buckets until its key's entry.
      return record / entries_per_bucket_ + 1;
  }
  return 0;
}

AccessResult ScheduledBroadcast::Access(std::string_view key,
                                        Bytes tune_in) const {
  const ArenaChannelView& view = walk_.view();
  const Bytes dt = view.bucket(0).size();
  const Bytes cycle = view.cycle_bytes();
  AccessResult result;
  const Bytes boundary = view.NextBoundaryTime(tune_in);
  const Bytes wait = boundary - tune_in;
  const int target = dataset_->FindIndex(key);

  if (style_ == ScheduledSegmentStyle::kNone) {
    // Multi-disk scan, as the broadcast-disks walk: read until the target
    // arrives; absence is certain only after a full major cycle.
    Bytes buckets_read;
    if (target >= 0) {
      const std::vector<Bytes>& occ =
          occurrences_[static_cast<std::size_t>(target)];
      const Bytes phase = boundary % cycle;
      const auto it = std::lower_bound(occ.begin(), occ.end(), phase);
      const Bytes next = it != occ.end() ? *it : occ.front() + cycle;
      buckets_read = (next - phase) / dt + 1;
      result.found = true;
    } else {
      buckets_read = static_cast<Bytes>(view.num_buckets());
    }
    result.access_time = wait + buckets_read * dt;
    result.tuning_time = result.access_time;
    result.probes = static_cast<int>(buckets_read);
    return result;
  }

  // Initial probe: the first full bucket carries the offset to the next
  // index segment, so the client dozes until that segment opens.
  const Bytes after_probe = boundary + dt;
  const auto seg = std::lower_bound(segment_starts_.begin(),
                                    segment_starts_.end(), after_probe % cycle);
  const Bytes seg_phase =
      seg != segment_starts_.end() ? *seg : segment_starts_.front();
  const Bytes seg_time = view.NextArrivalOfPhase(seg_phase, after_probe);

  // Descend the segment (per the index family's probe rule), then doze to
  // the target's next data occurrence.
  const int descent = target >= 0 ? DescentProbes(target) : probes_absent_;
  const Bytes descent_end = seg_time + static_cast<Bytes>(descent) * dt;
  result.index_probes = 1 + descent;
  result.probes = result.index_probes;
  result.tuning_time = wait + dt + static_cast<Bytes>(descent) * dt;
  if (target >= 0) {
    const std::vector<Bytes>& occ =
        occurrences_[static_cast<std::size_t>(target)];
    const auto it =
        std::lower_bound(occ.begin(), occ.end(), descent_end % cycle);
    const Bytes occ_phase = it != occ.end() ? *it : occ.front();
    const Bytes arrival = view.NextArrivalOfPhase(occ_phase, descent_end);
    result.found = true;
    result.access_time = arrival + dt - tune_in;
    result.tuning_time += dt;
    result.probes += 1;
  } else {
    result.access_time = descent_end - tune_in;
  }
  return result;
}

std::vector<std::int64_t> ScheduledBroadcast::FlattenAux() const {
  std::vector<std::int64_t> aux;
  const int num_disks = assignment_.num_disks();
  aux.reserve(3 + 2 * static_cast<std::size_t>(num_disks));
  aux.push_back(kAuxTag);
  aux.push_back(num_disks);
  for (int d = 0; d < num_disks; ++d) {
    aux.push_back(assignment_.disk_begin[static_cast<std::size_t>(d) + 1]);
  }
  for (int d = 0; d < num_disks; ++d) {
    aux.push_back(assignment_.frequencies[static_cast<std::size_t>(d)]);
  }
  aux.push_back(rotation_slots_);
  return aux;
}

}  // namespace airindex


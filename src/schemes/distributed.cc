#include "schemes/distributed.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "analytical/models.h"

namespace airindex {

int DistributedIndexing::OptimalR(int num_records,
                                  const BucketGeometry& geometry) {
  return DistributedOptimalRExact(num_records, geometry);
}

Result<DistributedIndexing> DistributedIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    int r) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "distributed indexing needs a non-empty dataset");
  }
  const int num_records = dataset->size();
  Result<BTree> tree_result =
      BTree::Build(num_records, geometry.index_fanout());
  if (!tree_result.ok()) return tree_result.status();
  BTree tree = std::move(tree_result).value();

  if (r == -1) {
    r = std::min(OptimalR(num_records, geometry), tree.height() - 1);
  }
  if (r < 0 || r >= tree.height()) {
    return Status::InvalidArgument(
        "replicated level count must be in [0, tree height)");
  }

  // ---- Pass 1: bucket order. --------------------------------------------
  // Each data segment is one depth-r subtree; its index segment holds the
  // replicated ancestors that are seeing the first occurrence of one of
  // their children, then the preorder of the non-replicated subtree.
  const std::vector<int> segment_roots = tree.NodesAtDepth(r);
  const int num_segments = static_cast<int>(segment_roots.size());
  const Bytes bucket_bytes = geometry.data_bucket_bytes();

  struct Slot {
    bool is_index;
    int node_id;
    int record_id;
    int segment;
    int last_record_before;  // dataset index of the last data record
                             // broadcast before this bucket; -1 if none.
  };
  std::vector<Slot> layout;
  std::vector<std::vector<int>> occurrences(tree.nodes().size());
  std::vector<int> segment_start(static_cast<std::size_t>(num_segments), 0);
  std::vector<Bytes> record_phase(static_cast<std::size_t>(num_records), 0);

  int last_record = -1;
  for (int j = 0; j < num_segments; ++j) {
    const int seg_root = segment_roots[static_cast<std::size_t>(j)];
    segment_start[static_cast<std::size_t>(j)] =
        static_cast<int>(layout.size());

    // Replicated ancestors, top-down. Ancestor a (via path child c) is
    // emitted exactly before the first segment of c's subtree.
    std::vector<int> path = tree.Ancestors(seg_root);  // nearest first
    std::reverse(path.begin(), path.end());            // root first
    path.push_back(seg_root);
    for (std::size_t d = 0; d + 1 < path.size(); ++d) {
      const int ancestor = path[d];
      const int path_child = path[d + 1];
      if (tree.node(path_child).first_record ==
          tree.node(seg_root).first_record) {
        occurrences[static_cast<std::size_t>(ancestor)].push_back(
            static_cast<int>(layout.size()));
        layout.push_back(Slot{true, ancestor, -1, j, last_record});
      }
    }

    // Non-replicated part: the depth-r subtree in preorder.
    for (const int node_id : tree.PreorderSubtree(seg_root)) {
      occurrences[static_cast<std::size_t>(node_id)].push_back(
          static_cast<int>(layout.size()));
      layout.push_back(Slot{true, node_id, -1, j, last_record});
    }

    // The data segment itself.
    const BTreeNode& root_node = tree.node(seg_root);
    for (int rec = root_node.first_record; rec <= root_node.last_record;
         ++rec) {
      record_phase[static_cast<std::size_t>(rec)] =
          static_cast<Bytes>(layout.size()) * bucket_bytes;
      layout.push_back(Slot{false, -1, rec, j, last_record});
      last_record = rec;
    }
  }

  // Next occurrence of `node` strictly after layout position `pos`,
  // wrapping to the node's first occurrence next cycle.
  const auto next_occurrence_phase = [&](int node, int pos) -> Bytes {
    const std::vector<int>& occ = occurrences[static_cast<std::size_t>(node)];
    const auto it = std::upper_bound(occ.begin(), occ.end(), pos);
    const int target = it != occ.end() ? *it : occ.front();
    return static_cast<Bytes>(target) * bucket_bytes;
  };

  // ---- Pass 2: materialize buckets. ---------------------------------------
  std::vector<Bucket> buckets;
  buckets.reserve(layout.size());
  for (std::size_t pos = 0; pos < layout.size(); ++pos) {
    const Slot& slot = layout[pos];
    Bucket bucket;
    bucket.size = bucket_bytes;
    bucket.next_index_segment_phase =
        static_cast<Bytes>(
            segment_start[static_cast<std::size_t>((slot.segment + 1) %
                                                   num_segments)]) *
        bucket_bytes;
    if (!slot.is_index) {
      bucket.kind = BucketKind::kData;
      bucket.record_id = slot.record_id;
      buckets.push_back(std::move(bucket));
      continue;
    }

    const BTreeNode& node = tree.node(slot.node_id);
    bucket.kind = BucketKind::kIndex;
    bucket.level = node.level;
    bucket.range_lo = dataset->record(node.first_record).key;
    bucket.range_hi = dataset->record(node.last_record).key;
    bucket.last_broadcast_key =
        slot.last_record_before >= 0
            ? dataset->record(slot.last_record_before).key
            : std::string();

    bucket.local.reserve(node.children.size());
    for (const int child : node.children) {
      PointerEntry entry;
      if (node.level == 0) {
        entry.key_lo = dataset->record(child).key;
        entry.key_hi = entry.key_lo;
        entry.target_phase = record_phase[static_cast<std::size_t>(child)];
      } else {
        const BTreeNode& child_node = tree.node(child);
        entry.key_lo = dataset->record(child_node.first_record).key;
        entry.key_hi = dataset->record(child_node.last_record).key;
        entry.target_phase =
            next_occurrence_phase(child, static_cast<int>(pos));
      }
      bucket.local.push_back(std::move(entry));
    }

    // Control index: each ancestor's next occurrence, nearest first.
    for (const int ancestor : tree.Ancestors(slot.node_id)) {
      const BTreeNode& anc = tree.node(ancestor);
      PointerEntry entry;
      entry.key_lo = dataset->record(anc.first_record).key;
      entry.key_hi = dataset->record(anc.last_record).key;
      entry.target_phase =
          next_occurrence_phase(ancestor, static_cast<int>(pos));
      bucket.control.push_back(std::move(entry));
    }
    buckets.push_back(std::move(bucket));
  }

  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  return DistributedIndexing(std::move(dataset), std::move(tree),
                             std::move(channel).value(), r, num_segments);
}

namespace {

// The distributed protocol over the channel view (schemes/channel_view.h),
// reporting every step to `sink` (schemes/trace.h): Access passes a
// NullSink, AccessTraced a TraceSink.
template <typename View, typename Sink>
AccessResult DistributedWalk(const View& view, std::string_view key,
                             Bytes tune_in, int tree_height, Sink sink) {
  const auto doze_to = [&](Bytes phase, Bytes now, ProbeAction action,
                           const char* note) {
    const Bytes arrival = view.NextArrivalOfPhase(phase, now);
    sink.Step(now, arrival - now, action, kNoBucket, note);
    return arrival;
  };

  AccessResult result;
  Bytes t = view.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  sink.Step(tune_in, t - tune_in, ProbeAction::kInitialWait, kNoBucket,
            "listen to the partial bucket");

  // First complete bucket: learn the offset to the next index segment.
  {
    const std::size_t i = view.BucketAtPhase(t % view.cycle_bytes());
    const auto first = view.bucket(i);
    sink.Step(t, first.size(), ProbeAction::kRead, i,
              "first complete bucket: take next-index-segment offset");
    t += first.size();
    result.tuning_time += first.size();
    ++result.probes;
    if (first.kind() == BucketKind::kIndex) ++result.index_probes;
    t = doze_to(first.next_index_segment_phase(), t, ProbeAction::kDoze,
                "to the next index segment");
  }

  const int max_probes = 6 * tree_height + 16;
  bool restarted = false;
  while (result.probes < max_probes) {
    const std::size_t i = view.BucketAtPhase(t % view.cycle_bytes());
    const auto bucket = view.bucket(i);
    sink.IndexProbe(t, bucket.size(), i, bucket.range_lo(),
                    bucket.range_hi());
    t += bucket.size();
    result.tuning_time += bucket.size();
    ++result.probes;
    if (bucket.kind() != BucketKind::kIndex) {
      ++result.anomalies;
      break;
    }
    ++result.index_probes;
    // "If K < the key most recently broadcast, go to the next broadcast":
    // the record (if on air at all) already passed this cycle.
    if (!bucket.last_broadcast_key().empty() &&
        key <= bucket.last_broadcast_key()) {
      if (restarted) {  // cannot happen on a well-formed channel
        ++result.anomalies;
        break;
      }
      restarted = true;
      t = doze_to(0, t, ProbeAction::kRestart,
                  "key already passed: wait for the next broadcast");
      continue;
    }
    if (key < bucket.range_lo()) {
      sink.Step(t, 0, ProbeAction::kConclude, kNoBucket,
                "key below everything still to come: not on air");
      break;
    }
    if (key > bucket.range_hi()) {
      // Climb via the control index to the lowest ancestor covering K.
      const EntryView up = bucket.FindControlUp(key);
      if (!up.found) {
        sink.Step(t, 0, ProbeAction::kConclude, kNoBucket,
                  "key beyond the maximum key: not on air");
        break;
      }
      t = doze_to(up.target_phase, t, ProbeAction::kClimb,
                  "control index: to the next occurrence of an ancestor");
      continue;
    }
    // K within this subtree: descend.
    const EntryView entry = bucket.FindLocal(key);
    if (!entry.found) {
      sink.Step(t, 0, ProbeAction::kConclude, kNoBucket,
                "key falls in a gap between children: not on air");
      break;
    }
    t = doze_to(entry.target_phase, t, ProbeAction::kDoze,
                bucket.level() == 0 ? "to the data bucket"
                                    : "descend to the child index bucket");
    if (bucket.level() == 0) {
      const std::size_t d = view.BucketAtPhase(t % view.cycle_bytes());
      const auto data = view.bucket(d);
      sink.Step(t, data.size(), ProbeAction::kDownload, d,
                "requested record");
      t += data.size();
      result.tuning_time += data.size();
      ++result.probes;
      result.found = true;
      sink.Step(t, 0, ProbeAction::kConclude, kNoBucket, "found");
      break;
    }
  }
  if (result.probes >= max_probes && !result.found) ++result.anomalies;
  result.access_time = t - tune_in;
  return result;
}

}  // namespace

AccessResult DistributedIndexing::Access(std::string_view key,
                                         Bytes tune_in) const {
  return DistributedWalk(walk_.view(), key, tune_in, tree_.height(),
                         NullSink());
}

AccessResult DistributedIndexing::AccessTraced(std::string_view key,
                                               Bytes tune_in,
                                               AccessTrace* trace) const {
  if (trace == nullptr) return Access(key, tune_in);
  return DistributedWalk(walk_.view(), key, tune_in, tree_.height(),
                         TraceSink(trace));
}

Result<DistributedIndexing> DistributedIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    Channel channel, std::shared_ptr<const ProgramArena> arena, int r,
    int num_segments) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "distributed restore needs a non-empty dataset");
  }
  if (r < 0 || num_segments < 1) {
    return Status::InvalidArgument(
        "distributed restore: resolved r/num_segments out of range");
  }
  Result<BTree> tree = BTree::Build(dataset->size(), geometry.index_fanout());
  if (!tree.ok()) return tree.status();
  if (r > tree.value().height() - 1) {
    return Status::InvalidArgument(
        "distributed restore: r exceeds tree height");
  }
  return DistributedIndexing(std::move(dataset), std::move(tree).value(),
                             std::move(channel), r, num_segments,
                             std::move(arena));
}

}  // namespace airindex

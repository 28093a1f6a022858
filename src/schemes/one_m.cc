#include "schemes/one_m.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "analytical/models.h"
#include "schemes/entry_search.h"

namespace airindex {

int OneMIndexing::OptimalM(int num_records, const BucketGeometry& geometry) {
  return OneMOptimalMExact(num_records, geometry);
}

Result<OneMIndexing> OneMIndexing::Build(std::shared_ptr<const Dataset> dataset,
                                         const BucketGeometry& geometry,
                                         int m) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("(1,m) indexing needs a non-empty dataset");
  }
  const int num_records = dataset->size();
  if (m == 0) m = OptimalM(num_records, geometry);
  if (m < 1 || m > num_records) {
    return Status::InvalidArgument("(1,m) replication count out of range");
  }

  Result<BTree> tree_result =
      BTree::Build(num_records, geometry.index_fanout());
  if (!tree_result.ok()) return tree_result.status();
  BTree tree = std::move(tree_result).value();
  const std::vector<int> preorder = tree.PreorderSubtree(tree.root());

  // Pass 1: lay out bucket order. Every bucket is the same size, so
  // phases are just position * Dt.
  const Bytes bucket_bytes = geometry.data_bucket_bytes();
  struct Slot {
    bool is_index;
    int node_id;    // index buckets
    int record_id;  // data buckets
    int segment;
  };
  std::vector<Slot> layout;
  std::vector<Bytes> segment_start_phase(static_cast<std::size_t>(m), 0);
  std::vector<Bytes> record_phase(static_cast<std::size_t>(num_records), 0);
  // Phase of node `id`'s index bucket in `segment`, one flat array:
  // node_phase[segment * num_nodes + id].
  const std::size_t num_nodes = tree.nodes().size();
  std::vector<Bytes> node_phase(static_cast<std::size_t>(m) * num_nodes,
                                kInvalidPhase);
  layout.reserve(static_cast<std::size_t>(m) * preorder.size() +
                 static_cast<std::size_t>(num_records));

  int next_record = 0;
  for (int segment = 0; segment < m; ++segment) {
    segment_start_phase[static_cast<std::size_t>(segment)] =
        static_cast<Bytes>(layout.size()) * bucket_bytes;
    for (const int node_id : preorder) {
      node_phase[static_cast<std::size_t>(segment) * num_nodes +
                 static_cast<std::size_t>(node_id)] =
          static_cast<Bytes>(layout.size()) * bucket_bytes;
      layout.push_back(Slot{true, node_id, -1, segment});
    }
    // Balanced split: segment s holds records [s*Nr/m, (s+1)*Nr/m).
    const int chunk_end = static_cast<int>(
        (static_cast<std::int64_t>(segment) + 1) * num_records / m);
    for (; next_record < chunk_end; ++next_record) {
      record_phase[static_cast<std::size_t>(next_record)] =
          static_cast<Bytes>(layout.size()) * bucket_bytes;
      layout.push_back(Slot{false, -1, next_record, segment});
    }
  }

  // Pass 2: materialize buckets with pointer phases.
  std::vector<Bucket> buckets;
  buckets.reserve(layout.size());
  for (const Slot& slot : layout) {
    Bucket bucket;
    bucket.size = bucket_bytes;
    bucket.next_index_segment_phase =
        segment_start_phase[static_cast<std::size_t>((slot.segment + 1) % m)];
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
            node_phase[static_cast<std::size_t>(slot.segment) * num_nodes +
                       static_cast<std::size_t>(child)];
      }
      bucket.local.push_back(std::move(entry));
    }
    buckets.push_back(std::move(bucket));
  }

  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  return OneMIndexing(std::move(dataset), std::move(tree),
                      std::move(channel).value(), m);
}

namespace {

// The (1,m) access protocol over the channel view
// (schemes/channel_view.h).
template <typename View>
AccessResult OneMWalk(const View& view, std::string_view key, Bytes tune_in,
                      int tree_height) {
  AccessResult result;
  // Initial wait: listen until the first complete bucket.
  Bytes t = view.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;

  // Read the first complete bucket to learn the next index segment.
  {
    const auto first = view.bucket(view.BucketAtPhase(t % view.cycle_bytes()));
    t += first.size();
    result.tuning_time += first.size();
    ++result.probes;
    if (first.kind() == BucketKind::kIndex) ++result.index_probes;
    t = view.NextArrivalOfPhase(first.next_index_segment_phase(), t);
  }

  // Descend the index tree from the segment's root.
  const int max_probes = 4 * tree_height + 8;
  while (result.probes < max_probes) {
    const std::size_t i = view.BucketAtPhase(t % view.cycle_bytes());
    const auto bucket = view.bucket(i);
    t += bucket.size();
    result.tuning_time += bucket.size();
    ++result.probes;
    if (bucket.kind() != BucketKind::kIndex) {
      ++result.anomalies;
      break;
    }
    ++result.index_probes;
    if (key < bucket.range_lo() || key > bucket.range_hi()) {
      break;  // not on air
    }
    const EntryView entry = bucket.FindLocal(key);
    if (!entry.found) break;  // key falls in a gap: not on air
    t = view.NextArrivalOfPhase(entry.target_phase, t);
    if (bucket.level() == 0) {
      // Leaf hit: the target is the data bucket. Download it.
      const auto data =
          view.bucket(view.BucketAtPhase(t % view.cycle_bytes()));
      t += data.size();
      result.tuning_time += data.size();
      ++result.probes;
      result.found = true;
      break;
    }
  }
  if (result.probes >= max_probes && !result.found) ++result.anomalies;
  result.access_time = t - tune_in;
  return result;
}

}  // namespace

AccessResult OneMIndexing::Access(std::string_view key, Bytes tune_in) const {
  return OneMWalk(walk_.view(), key, tune_in, tree_.height());
}

Result<OneMIndexing> OneMIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    Channel channel, std::shared_ptr<const ProgramArena> arena, int m) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("(1,m) restore needs a non-empty dataset");
  }
  if (m < 1) {
    return Status::InvalidArgument("(1,m) restore: resolved m must be >= 1");
  }
  Result<BTree> tree = BTree::Build(dataset->size(), geometry.index_fanout());
  if (!tree.ok()) return tree.status();
  return OneMIndexing(std::move(dataset), std::move(tree).value(),
                      std::move(channel), m, std::move(arena));
}

}  // namespace airindex

#include "schemes/hybrid.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "schemes/entry_search.h"

namespace airindex {

Result<HybridIndexing> HybridIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, int group_size, int m) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "hybrid indexing needs a non-empty dataset");
  }
  if (group_size < 1) {
    return Status::InvalidArgument("group_size must be at least 1");
  }
  if (geometry.signature_bytes <= 0 || params.bits_per_attribute <= 0 ||
      params.bits_per_attribute > geometry.signature_bytes * 8) {
    return Status::InvalidArgument("bad signature configuration");
  }
  const int num_records = dataset->size();
  const int num_groups = (num_records + group_size - 1) / group_size;

  Result<BTree> tree_result =
      BTree::Build(num_groups, geometry.index_fanout());
  if (!tree_result.ok()) return tree_result.status();
  BTree tree = std::move(tree_result).value();
  const std::vector<int> preorder = tree.PreorderSubtree(tree.root());

  if (m == 0) {
    // (1,m)'s sqrt rule in bytes: index segment vs data portion.
    const double tree_bytes = static_cast<double>(tree.nodes().size()) *
                              static_cast<double>(geometry.index_bucket_bytes());
    const double data_bytes =
        static_cast<double>(num_records) *
        static_cast<double>(geometry.signature_bucket_bytes() +
                            geometry.data_bucket_bytes());
    m = static_cast<int>(std::lround(std::sqrt(data_bytes / tree_bytes)));
    m = std::clamp(m, 1, num_groups);
  }
  if (m < 1 || m > num_groups) {
    return Status::InvalidArgument("hybrid replication count out of range");
  }

  SignatureGenerator generator(geometry, params);
  const auto group_first = [&](int g) { return g * group_size; };
  const auto group_last = [&](int g) {
    return std::min((g + 1) * group_size, num_records) - 1;
  };

  // ---- Pass 1: byte-accurate layout (buckets have mixed sizes). ----------
  struct Slot {
    enum Kind { kTreeNode, kRecordSig, kRecordData } kind;
    int id;  // node id / record id
    int segment;
  };
  std::vector<Slot> layout;
  std::vector<Bytes> slot_phase;
  Bytes at = 0;
  const auto emit = [&](Slot slot, Bytes size) {
    layout.push_back(slot);
    slot_phase.push_back(at);
    at += size;
  };

  std::vector<Bytes> segment_start_phase(static_cast<std::size_t>(m), 0);
  std::vector<Bytes> group_start_phase(static_cast<std::size_t>(num_groups),
                                       0);
  std::vector<std::vector<Bytes>> node_phase(
      static_cast<std::size_t>(m),
      std::vector<Bytes>(tree.nodes().size(), kInvalidPhase));
  int next_group = 0;
  for (int segment = 0; segment < m; ++segment) {
    segment_start_phase[static_cast<std::size_t>(segment)] = at;
    for (const int node_id : preorder) {
      node_phase[static_cast<std::size_t>(segment)]
                [static_cast<std::size_t>(node_id)] = at;
      emit(Slot{Slot::kTreeNode, node_id, segment},
           geometry.index_bucket_bytes());
    }
    const int chunk_end = static_cast<int>(
        (static_cast<std::int64_t>(segment) + 1) * num_groups / m);
    for (; next_group < chunk_end; ++next_group) {
      group_start_phase[static_cast<std::size_t>(next_group)] = at;
      for (int rec = group_first(next_group); rec <= group_last(next_group);
           ++rec) {
        emit(Slot{Slot::kRecordSig, rec, segment},
             geometry.signature_bucket_bytes());
        emit(Slot{Slot::kRecordData, rec, segment},
             geometry.data_bucket_bytes());
      }
    }
  }

  // ---- Pass 2: materialize buckets. ---------------------------------------
  std::vector<Bucket> buckets;
  buckets.reserve(layout.size());
  for (std::size_t pos = 0; pos < layout.size(); ++pos) {
    const Slot& slot = layout[pos];
    Bucket bucket;
    bucket.next_index_segment_phase =
        segment_start_phase[static_cast<std::size_t>((slot.segment + 1) % m)];
    switch (slot.kind) {
      case Slot::kRecordData:
        bucket.kind = BucketKind::kData;
        bucket.size = geometry.data_bucket_bytes();
        bucket.record_id = slot.id;
        break;
      case Slot::kRecordSig:
        bucket.kind = BucketKind::kSignature;
        bucket.size = geometry.signature_bucket_bytes();
        bucket.record_id = slot.id;
        bucket.signature = generator.RecordSignature(dataset->record(slot.id));
        break;
      case Slot::kTreeNode: {
        const BTreeNode& node = tree.node(slot.id);
        bucket.kind = BucketKind::kIndex;
        bucket.size = geometry.index_bucket_bytes();
        bucket.level = node.level;
        bucket.range_lo =
            dataset->record(group_first(node.first_record)).key;
        bucket.range_hi = dataset->record(group_last(node.last_record)).key;
        bucket.local.reserve(node.children.size());
        for (const int child : node.children) {
          PointerEntry entry;
          if (node.level == 0) {
            // Leaf entries point at group starts.
            entry.key_lo = dataset->record(group_first(child)).key;
            entry.key_hi = dataset->record(group_last(child)).key;
            entry.target_phase =
                group_start_phase[static_cast<std::size_t>(child)];
          } else {
            const BTreeNode& child_node = tree.node(child);
            entry.key_lo =
                dataset->record(group_first(child_node.first_record)).key;
            entry.key_hi =
                dataset->record(group_last(child_node.last_record)).key;
            entry.target_phase =
                node_phase[static_cast<std::size_t>(slot.segment)]
                          [static_cast<std::size_t>(child)];
          }
          bucket.local.push_back(std::move(entry));
        }
        break;
      }
    }
    buckets.push_back(std::move(bucket));
  }

  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  return HybridIndexing(std::move(dataset), generator,
                        std::move(tree), std::move(channel).value(),
                        group_size, m);
}

namespace {

// The hybrid tree-descent + in-group signature sift over the channel view
// (schemes/channel_view.h).
template <typename View>
AccessResult HybridWalk(const View& view, std::string_view key, Bytes tune_in,
                        const Dataset& dataset,
                        const SignatureGenerator& generator, int tree_height,
                        int group_size) {
  AccessResult result;
  const std::vector<std::uint64_t> query = generator.QuerySignature(key);
  const int words = generator.words();

  // Initial wait + first complete bucket, then the next index segment.
  Bytes t = view.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  {
    const auto first = view.bucket(view.BucketAtPhase(t % view.cycle_bytes()));
    t += first.size();
    result.tuning_time += first.size();
    ++result.probes;
    if (first.kind() == BucketKind::kIndex) ++result.index_probes;
    t = view.NextArrivalOfPhase(first.next_index_segment_phase(), t);
  }

  // Descend the group tree.
  const int max_probes = 4 * tree_height + 8 + 2 * group_size;
  bool in_group = false;
  int group_remaining = 0;
  while (result.probes < max_probes) {
    const std::size_t i = view.BucketAtPhase(t % view.cycle_bytes());
    const auto bucket = view.bucket(i);

    if (!in_group) {
      t += bucket.size();
      result.tuning_time += bucket.size();
      ++result.probes;
      if (bucket.kind() != BucketKind::kIndex) {
        ++result.anomalies;
        break;
      }
      ++result.index_probes;
      if (key < bucket.range_lo() || key > bucket.range_hi()) break;
      const EntryView entry = bucket.FindLocal(key);
      if (!entry.found) break;  // gap: not on air
      t = view.NextArrivalOfPhase(entry.target_phase, t);
      if (bucket.level() == 0) {
        in_group = true;
        group_remaining = group_size;
      }
      continue;
    }

    // Inside the group: sift record signatures.
    if (group_remaining == 0 || bucket.kind() != BucketKind::kSignature) {
      break;  // group exhausted: not on air
    }
    t += bucket.size();
    result.tuning_time += bucket.size();
    ++result.probes;
    ++result.index_probes;
    --group_remaining;
    const auto data = view.bucket((i + 1) % view.num_buckets());
    if (SignatureGenerator::Matches(bucket.signature_words(), query.data(),
                                    words)) {
      t += data.size();
      result.tuning_time += data.size();
      ++result.probes;
      const Record& record = dataset.record(static_cast<int>(data.record_id()));
      if (record.key == key) {
        result.found = true;
        break;
      }
      ++result.false_drops;
    } else {
      t += data.size();  // doze over the data bucket
    }
  }
  if (result.probes >= max_probes && !result.found) ++result.anomalies;
  result.access_time = t - tune_in;
  return result;
}

}  // namespace

AccessResult HybridIndexing::Access(std::string_view key,
                                    Bytes tune_in) const {
  return HybridWalk(walk_.view(), key, tune_in, *dataset_, generator_,
                    tree_.height(), group_size_);
}

FilterResult HybridIndexing::Filter(std::string_view value,
                                    Bytes tune_in) const {
  FilterResult result;
  const std::vector<std::uint64_t> query = generator_.QuerySignature(value);
  const int words = generator_.words();
  const Bytes cycle = channel_.cycle_bytes();
  const std::size_t num = channel_.num_buckets();

  // Advance to the next signature bucket, listening until it starts.
  Bytes t = tune_in;
  std::size_t i = channel_.BucketAtPhase(t % cycle);
  if (channel_.start_phase(i) != t % cycle ||
      channel_.bucket(i).kind != BucketKind::kSignature) {
    do {
      i = (i + 1) % num;
    } while (channel_.bucket(i).kind != BucketKind::kSignature);
    t = channel_.NextArrivalOfPhase(channel_.start_phase(i), t);
  }
  result.tuning_time = t - tune_in;

  const int total_sigs = dataset_->size();
  for (int sifted = 0; sifted < total_sigs; ++sifted) {
    const Bucket& sig = channel_.bucket(i);
    t += sig.size;
    result.tuning_time += sig.size;
    ++result.probes;
    const Bucket& data = channel_.bucket((i + 1) % num);
    if (SignatureGenerator::Matches(sig.signature.data(), query.data(),
                                    words)) {
      t += data.size;
      result.tuning_time += data.size;
      ++result.probes;
      const Record& record =
          dataset_->record(static_cast<int>(data.record_id));
      bool carries = false;
      for (const std::string& attribute : record.attributes) {
        if (attribute == value) {
          carries = true;
          break;
        }
      }
      if (carries) {
        result.matches.push_back(static_cast<int>(record.id));
      } else {
        ++result.false_drops;
      }
    }
    if (sifted + 1 == total_sigs) break;
    // Doze to the next signature bucket (skipping data and index parts).
    std::size_t j = (i + 1) % num;
    while (channel_.bucket(j).kind != BucketKind::kSignature) {
      j = (j + 1) % num;
    }
    t = channel_.NextArrivalOfPhase(channel_.start_phase(j), t);
    i = j;
  }
  result.access_time = t - tune_in;
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

Result<HybridIndexing> HybridIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, Channel channel,
    std::shared_ptr<const ProgramArena> arena, int group_size, int m) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("hybrid restore needs a non-empty dataset");
  }
  if (group_size < 1) {
    return Status::InvalidArgument(
        "hybrid restore: group_size must be >= 1");
  }
  const int num_groups = (dataset->size() + group_size - 1) / group_size;
  if (m < 1 || m > num_groups) {
    return Status::InvalidArgument(
        "hybrid restore: resolved m out of [1, num_groups]");
  }
  SignatureGenerator generator(geometry, params);
  Result<BTree> tree = BTree::Build(num_groups, geometry.index_fanout());
  if (!tree.ok()) return tree.status();
  return HybridIndexing(std::move(dataset), generator,
                        std::move(tree).value(), std::move(channel),
                        group_size, m, std::move(arena));
}

}  // namespace airindex

#include "schemes/multilevel_signature.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace airindex {

namespace {

/// Bucket::level values distinguishing the two signature levels.
constexpr int kGroupSignatureLevel = 1;
constexpr int kRecordSignatureLevel = 0;

}  // namespace

Result<MultiLevelSignatureIndexing> MultiLevelSignatureIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, int group_size) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "multi-level signature indexing needs a non-empty dataset");
  }
  if (group_size < 1) {
    return Status::InvalidArgument("group_size must be at least 1");
  }
  if (geometry.signature_bytes <= 0 || params.bits_per_attribute <= 0 ||
      params.bits_per_attribute > geometry.signature_bytes * 8) {
    return Status::InvalidArgument("bad signature configuration");
  }

  SignatureGenerator record_generator(geometry, params);
  const Bytes group_sig_bytes =
      ResolveGroupSignatureBytes(geometry, params, group_size);
  SignatureGenerator group_generator(group_sig_bytes, params);
  const int group_words = group_generator.words();
  const int num_records = dataset->size();

  std::vector<Bucket> buckets;
  for (int first = 0; first < num_records; first += group_size) {
    const int last = std::min(first + group_size, num_records) - 1;

    Bucket group_bucket;
    group_bucket.kind = BucketKind::kSignature;
    group_bucket.level = kGroupSignatureLevel;
    group_bucket.size = group_sig_bytes;
    group_bucket.record_id = first;
    group_bucket.signature.assign(static_cast<std::size_t>(group_words), 0);
    for (int rec = first; rec <= last; ++rec) {
      const std::vector<std::uint64_t> member =
          group_generator.RecordSignature(dataset->record(rec));
      for (int w = 0; w < group_words; ++w) {
        group_bucket.signature[static_cast<std::size_t>(w)] |=
            member[static_cast<std::size_t>(w)];
      }
    }
    buckets.push_back(std::move(group_bucket));

    for (int rec = first; rec <= last; ++rec) {
      Bucket record_sig;
      record_sig.kind = BucketKind::kSignature;
      record_sig.level = kRecordSignatureLevel;
      record_sig.size = geometry.signature_bucket_bytes();
      record_sig.record_id = rec;
      record_sig.signature =
          record_generator.RecordSignature(dataset->record(rec));
      buckets.push_back(std::move(record_sig));

      Bucket data_bucket;
      data_bucket.kind = BucketKind::kData;
      data_bucket.size = geometry.data_bucket_bytes();
      data_bucket.record_id = rec;
      buckets.push_back(std::move(data_bucket));
    }
  }

  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  return MultiLevelSignatureIndexing(std::move(dataset), record_generator,
                                     group_generator,
                                     std::move(channel).value(), group_size);
}

namespace {

// The two-level signature sift over the channel view
// (schemes/channel_view.h).
template <typename View>
AccessResult MultiLevelWalk(const View& view, std::string_view key,
                            Bytes tune_in, const Dataset& dataset,
                            const SignatureGenerator& record_generator,
                            const SignatureGenerator& group_generator,
                            int group_size) {
  AccessResult result;
  const Bytes cycle = view.cycle_bytes();
  const std::size_t num = view.num_buckets();
  const std::vector<std::uint64_t> group_query =
      group_generator.QuerySignature(key);
  const std::vector<std::uint64_t> record_query =
      record_generator.QuerySignature(key);
  const int group_words = group_generator.words();
  const int record_words = record_generator.words();

  const auto is_group = [&](std::size_t i) {
    const auto b = view.bucket(i);
    return b.kind() == BucketKind::kSignature &&
           b.level() == kGroupSignatureLevel;
  };

  // Listen until the next complete group-signature bucket.
  Bytes t = tune_in;
  std::size_t i = view.BucketAtPhase(t % cycle);
  if (view.start_phase(i) != t % cycle || !is_group(i)) {
    do {
      i = (i + 1) % num;
    } while (!is_group(i));
    t = view.NextArrivalOfPhase(view.start_phase(i), t);
  }
  result.tuning_time = t - tune_in;

  const int num_groups = (dataset.size() + group_size - 1) / group_size;
  for (int scanned = 0; scanned < num_groups; ++scanned) {
    const auto group_bucket = view.bucket(i);
    t += group_bucket.size();
    result.tuning_time += group_bucket.size();
    ++result.probes;
    ++result.index_probes;
    const bool group_match = SignatureGenerator::Matches(
        group_bucket.signature_words(), group_query.data(), group_words);

    // Locate the next group start (one past this group's members).
    std::size_t next_group = i + 1;
    while (next_group < num && !is_group(next_group)) ++next_group;

    if (group_match) {
      // Sift the record signatures inside the group.
      for (std::size_t s = i + 1; s < next_group && !result.found; s += 2) {
        const auto record_sig = view.bucket(s);
        t = view.NextArrivalOfPhase(view.start_phase(s), t);
        t += record_sig.size();
        result.tuning_time += record_sig.size();
        ++result.probes;
        ++result.index_probes;
        if (!SignatureGenerator::Matches(record_sig.signature_words(),
                                         record_query.data(), record_words)) {
          continue;  // doze over the data bucket
        }
        const auto data_bucket = view.bucket(s + 1);
        t += data_bucket.size();
        result.tuning_time += data_bucket.size();
        ++result.probes;
        const Record& record =
            dataset.record(static_cast<int>(data_bucket.record_id()));
        if (record.key == key) {
          result.found = true;
        } else {
          ++result.false_drops;
        }
      }
      if (result.found) break;
    }
    if (scanned + 1 == num_groups) break;  // cycle sifted: not on air
    const Bytes next_phase =
        next_group < num ? view.start_phase(next_group) : 0;
    t = view.NextArrivalOfPhase(next_phase, t);
    i = view.BucketAtPhase(next_phase);
  }
  result.access_time = t - tune_in;
  return result;
}

}  // namespace

AccessResult MultiLevelSignatureIndexing::Access(std::string_view key,
                                                 Bytes tune_in) const {
  return MultiLevelWalk(walk_.view(), key, tune_in, *dataset_,
                        record_generator_, group_generator_, group_size_);
}

Result<MultiLevelSignatureIndexing> MultiLevelSignatureIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, Channel channel,
    std::shared_ptr<const ProgramArena> arena, int group_size) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "multi-level signature restore needs a non-empty dataset");
  }
  if (group_size < 1) {
    return Status::InvalidArgument(
        "multi-level signature restore: group_size must be >= 1");
  }
  SignatureGenerator record_generator(geometry, params);
  SignatureGenerator group_generator(
      ResolveGroupSignatureBytes(geometry, params, group_size), params);
  return MultiLevelSignatureIndexing(std::move(dataset), record_generator,
                                     group_generator, std::move(channel),
                                     group_size, std::move(arena));
}

}  // namespace airindex

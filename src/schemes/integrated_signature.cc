#include "schemes/integrated_signature.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace airindex {

Result<IntegratedSignatureIndexing> IntegratedSignatureIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, int group_size) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "integrated signature indexing needs a non-empty dataset");
  }
  if (group_size < 1) {
    return Status::InvalidArgument("group_size must be at least 1");
  }
  if (geometry.signature_bytes <= 0 || params.bits_per_attribute <= 0 ||
      params.bits_per_attribute > geometry.signature_bytes * 8) {
    return Status::InvalidArgument("bad signature configuration");
  }

  // Group signatures live in a wider bit space than record signatures so
  // superimposing a whole group does not saturate them.
  const Bytes group_sig_bytes =
      ResolveGroupSignatureBytes(geometry, params, group_size);
  SignatureGenerator generator(group_sig_bytes, params);
  const int words = generator.words();
  const int num_records = dataset->size();

  std::vector<Bucket> buckets;
  for (int first = 0; first < num_records; first += group_size) {
    const int last = std::min(first + group_size, num_records) - 1;
    Bucket sig_bucket;
    sig_bucket.kind = BucketKind::kSignature;
    sig_bucket.size = group_sig_bytes;
    sig_bucket.record_id = first;
    sig_bucket.signature.assign(static_cast<std::size_t>(words), 0);
    for (int rec = first; rec <= last; ++rec) {
      const std::vector<std::uint64_t> sig =
          generator.RecordSignature(dataset->record(rec));
      for (int w = 0; w < words; ++w) {
        sig_bucket.signature[static_cast<std::size_t>(w)] |=
            sig[static_cast<std::size_t>(w)];
      }
    }
    buckets.push_back(std::move(sig_bucket));
    for (int rec = first; rec <= last; ++rec) {
      Bucket data_bucket;
      data_bucket.kind = BucketKind::kData;
      data_bucket.size = geometry.data_bucket_bytes();
      data_bucket.record_id = rec;
      buckets.push_back(std::move(data_bucket));
    }
  }

  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  return IntegratedSignatureIndexing(std::move(dataset), generator,
                                     std::move(channel).value(), group_size);
}

namespace {

// The integrated-signature sift over the channel view
// (schemes/channel_view.h).
template <typename View>
AccessResult IntegratedWalk(const View& view, std::string_view key,
                            Bytes tune_in, const Dataset& dataset,
                            const SignatureGenerator& generator,
                            int group_size) {
  AccessResult result;
  const Bytes cycle = view.cycle_bytes();
  const std::size_t num = view.num_buckets();
  const std::vector<std::uint64_t> query = generator.QuerySignature(key);
  const int words = generator.words();

  // Listen until the next complete *group signature* bucket.
  Bytes t = tune_in;
  std::size_t i = view.BucketAtPhase(t % cycle);
  if (view.start_phase(i) != t % cycle ||
      view.bucket(i).kind() != BucketKind::kSignature) {
    do {
      i = (i + 1) % num;
    } while (view.bucket(i).kind() != BucketKind::kSignature);
    t = view.NextArrivalOfPhase(view.start_phase(i), t);
  }
  result.tuning_time = t - tune_in;

  const int num_groups = (dataset.size() + group_size - 1) / group_size;
  for (int scanned = 0; scanned < num_groups; ++scanned) {
    const auto sig_bucket = view.bucket(i);
    t += sig_bucket.size();
    result.tuning_time += sig_bucket.size();
    ++result.probes;
    ++result.index_probes;
    const bool match = SignatureGenerator::Matches(
        sig_bucket.signature_words(), query.data(), words);
    // Index of the next group-signature bucket.
    std::size_t next_group = i + 1;
    while (next_group < num &&
           view.bucket(next_group).kind() != BucketKind::kSignature) {
      ++next_group;
    }
    const std::size_t group_end = next_group;  // one past last data bucket
    if (match) {
      bool hit_in_group = false;
      for (std::size_t d = i + 1; d < group_end; ++d) {
        const auto data_bucket = view.bucket(d);
        t += data_bucket.size();
        result.tuning_time += data_bucket.size();
        ++result.probes;
        const Record& record =
            dataset.record(static_cast<int>(data_bucket.record_id()));
        if (record.key == key) {
          result.found = true;
          hit_in_group = true;
          break;
        }
      }
      if (result.found) break;
      if (!hit_in_group) ++result.false_drops;
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

AccessResult IntegratedSignatureIndexing::Access(std::string_view key,
                                                 Bytes tune_in) const {
  return IntegratedWalk(walk_.view(), key, tune_in, *dataset_, generator_,
                        group_size_);
}

Result<IntegratedSignatureIndexing> IntegratedSignatureIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, Channel channel,
    std::shared_ptr<const ProgramArena> arena, int group_size) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "integrated signature restore needs a non-empty dataset");
  }
  if (group_size < 1) {
    return Status::InvalidArgument(
        "integrated signature restore: group_size must be >= 1");
  }
  SignatureGenerator generator(
      ResolveGroupSignatureBytes(geometry, params, group_size), params);
  return IntegratedSignatureIndexing(std::move(dataset), generator,
                                     std::move(channel), group_size,
                                     std::move(arena));
}

}  // namespace airindex

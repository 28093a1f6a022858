#include "schemes/flat.h"

#include <string>
#include <utility>
#include <vector>

namespace airindex {

Result<FlatBroadcast> FlatBroadcast::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("flat broadcast needs a non-empty dataset");
  }
  std::vector<Bucket> buckets;
  buckets.reserve(static_cast<std::size_t>(dataset->size()));
  for (const Record& record : dataset->records()) {
    Bucket bucket;
    bucket.kind = BucketKind::kData;
    bucket.size = geometry.data_bucket_bytes();
    bucket.record_id = static_cast<std::int64_t>(record.id);
    buckets.push_back(std::move(bucket));
  }
  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  return FlatBroadcast(std::move(dataset), std::move(channel).value());
}

namespace {

// Closed-form flat walk over the channel view (schemes/channel_view.h).
template <typename View>
AccessResult FlatWalk(const View& view, std::string_view key, Bytes tune_in,
                      const Dataset& dataset) {
  const Bytes dt = view.bucket(0).size();
  const auto num = static_cast<Bytes>(view.num_buckets());

  AccessResult result;
  const Bytes boundary = view.NextBoundaryTime(tune_in);
  const Bytes wait = boundary - tune_in;
  const auto first =
      static_cast<Bytes>(view.BucketAtPhase(boundary % view.cycle_bytes()));

  const int target = dataset.FindIndex(key);
  Bytes buckets_read;
  if (target >= 0) {
    buckets_read = (static_cast<Bytes>(target) - first % num + num) % num + 1;
    result.found = true;
  } else {
    // Nothing to find: the client knows it has seen everything only after
    // one full cycle of buckets.
    buckets_read = num;
  }
  result.access_time = wait + buckets_read * dt;
  result.tuning_time = result.access_time;
  result.probes = static_cast<int>(buckets_read);
  return result;
}

}  // namespace

AccessResult FlatBroadcast::Access(std::string_view key, Bytes tune_in) const {
  return FlatWalk(walk_.view(), key, tune_in, *dataset_);
}

FilterResult FlatBroadcast::Filter(std::string_view value,
                                   Bytes tune_in) const {
  const Bytes dt = channel_.bucket(0).size;
  const auto num = static_cast<Bytes>(channel_.num_buckets());

  FilterResult result;
  const Bytes boundary = channel_.NextBoundaryTime(tune_in);
  result.matches = dataset_->FindByAttribute(value);
  result.probes = static_cast<int>(num);
  result.access_time = (boundary - tune_in) + num * dt;
  result.tuning_time = result.access_time;
  return result;
}

AccessResult FlatBroadcast::AccessReference(std::string_view key,
                                            Bytes tune_in) const {
  AccessResult result;
  Bytes t = channel_.NextBoundaryTime(tune_in);
  result.access_time = t - tune_in;
  result.tuning_time = t - tune_in;
  const auto num = channel_.num_buckets();
  std::size_t i = channel_.BucketAtPhase(t % channel_.cycle_bytes());
  for (std::size_t scanned = 0; scanned < num; ++scanned) {
    const Bucket& bucket = channel_.bucket(i);
    t += bucket.size;
    result.tuning_time += bucket.size;
    ++result.probes;
    const Record& record = dataset_->record(static_cast<int>(bucket.record_id));
    if (record.key == key) {
      result.found = true;
      break;
    }
    i = (i + 1) % num;
  }
  result.access_time = t - tune_in;
  return result;
}

Result<FlatBroadcast> FlatBroadcast::Restore(
    std::shared_ptr<const Dataset> dataset, Channel channel,
    std::shared_ptr<const ProgramArena> arena) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("flat restore needs a non-empty dataset");
  }
  if (channel.num_buckets() != static_cast<std::size_t>(dataset->size())) {
    return Status::InvalidArgument(
        "flat restore: channel has " + std::to_string(channel.num_buckets()) +
        " buckets for " + std::to_string(dataset->size()) + " records");
  }
  return FlatBroadcast(std::move(dataset), std::move(channel),
                       std::move(arena));
}

}  // namespace airindex

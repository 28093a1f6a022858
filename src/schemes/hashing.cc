#include "schemes/hashing.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "des/random.h"

namespace airindex {

namespace {

std::uint64_t HashString(std::string_view s) {
  // FNV-1a, then a 64-bit mix for avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

std::int64_t SimpleHashing::HashKey(std::string_view key) const {
  return static_cast<std::int64_t>(HashString(key) %
                                   static_cast<std::uint64_t>(allocated_));
}

Result<SimpleHashing> SimpleHashing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    double allocation_factor) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("hashing needs a non-empty dataset");
  }
  if (!(allocation_factor > 0.0 && std::isfinite(allocation_factor))) {
    return Status::InvalidArgument("allocation factor must be finite, positive");
  }
  const int num_records = dataset->size();
  const int allocated = std::max(
      1, static_cast<int>(std::lround(allocation_factor * num_records)));

  // Group records by slot, preserving key order within a slot: a
  // counting sort into one flat array, slot s's records at
  // by_slot[slot_first[s], slot_first[s + 1]).
  std::vector<std::size_t> slot_of(static_cast<std::size_t>(num_records));
  std::vector<int> slot_first(static_cast<std::size_t>(allocated) + 1, 0);
  for (int id = 0; id < num_records; ++id) {
    const std::size_t slot = HashString(dataset->record(id).key) %
                             static_cast<std::uint64_t>(allocated);
    slot_of[static_cast<std::size_t>(id)] = slot;
    ++slot_first[slot + 1];
  }
  const auto empty_slots =
      std::count(slot_first.begin() + 1, slot_first.end(), 0);
  std::partial_sum(slot_first.begin(), slot_first.end(), slot_first.begin());
  std::vector<int> by_slot(static_cast<std::size_t>(num_records));
  std::vector<int> fill(slot_first.begin(), slot_first.end() - 1);
  for (int id = 0; id < num_records; ++id) {
    by_slot[static_cast<std::size_t>(
        fill[slot_of[static_cast<std::size_t>(id)]]++)] = id;
  }

  // Lay out: per slot, the home bucket (first record, or empty) followed
  // by its displaced (colliding) records. Bucket at *position* i < Na
  // represents hash value i in its control part and stores the shift to
  // the chain start home_pos(i) = i + displaced records of slots < i.
  const Bytes bucket_bytes = geometry.data_bucket_bytes();
  std::vector<Bucket> buckets;
  buckets.reserve(static_cast<std::size_t>(num_records + empty_slots));
  std::vector<Bytes> chain_start_phase(static_cast<std::size_t>(allocated));
  for (int slot = 0; slot < allocated; ++slot) {
    const auto s = static_cast<std::size_t>(slot);
    chain_start_phase[s] = static_cast<Bytes>(buckets.size()) * bucket_bytes;
    const int first = slot_first[s];
    const int count = slot_first[s + 1] - first;
    for (int i = 0; i < std::max(count, 1); ++i) {
      Bucket& bucket = buckets.emplace_back();
      bucket.kind = BucketKind::kData;
      bucket.size = bucket_bytes;
      if (i < count) {
        bucket.record_id = by_slot[static_cast<std::size_t>(first + i)];
        bucket.hash_value = slot;
      }
    }
  }
  // Fill the control parts positionally.
  for (std::size_t pos = 0; pos < buckets.size(); ++pos) {
    if (pos < static_cast<std::size_t>(allocated)) {
      buckets[pos].slot = static_cast<std::int64_t>(pos);
      buckets[pos].shift_phase = chain_start_phase[pos];
    }
  }

  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  return SimpleHashing(std::move(dataset), std::move(channel).value(),
                       allocated);
}

namespace {

// The hashing protocol over the channel view (schemes/channel_view.h).
template <typename View>
AccessResult HashingWalk(const View& view, std::string_view key, Bytes tune_in,
                         std::int64_t hash, const Dataset& dataset) {
  AccessResult result;
  const Bytes dt = view.bucket(0).size();
  const Bytes cycle = view.cycle_bytes();
  const Bytes home_phase = static_cast<Bytes>(hash) * dt;

  // Initial wait, then the first complete bucket.
  Bytes t = view.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  const auto first_pos =
      static_cast<std::int64_t>(view.BucketAtPhase(t % cycle));
  t += dt;
  result.tuning_time += dt;
  ++result.probes;
  ++result.index_probes;

  // Reach the bucket at the hashing position H(K). The paper's protocol
  // compares the hash value h carried by the first bucket against H(K);
  // because the layout is sorted by hash value, comparing positions is
  // equivalent (position i < Na carries hash value i in its control
  // part). If the position already passed, wait for the next broadcast.
  if (first_pos != hash) {
    t = view.NextArrivalOfPhase(home_phase, t);
    t += dt;
    result.tuning_time += dt;
    ++result.probes;
    ++result.index_probes;
  }

  // Follow the shift value to the chain start, then scan the chain.
  const Bytes chain_phase =
      view.bucket(static_cast<std::size_t>(hash)).shift_phase();
  std::size_t pos = view.BucketAtPhase(chain_phase);
  bool current_in_hand = false;
  if (chain_phase == home_phase) {
    // The chain starts at the home bucket we just read.
    current_in_hand = true;
    pos = static_cast<std::size_t>(hash);
  } else {
    t = view.NextArrivalOfPhase(chain_phase, t);
  }

  const std::size_t num = view.num_buckets();
  for (std::size_t scanned = 0; scanned < num; ++scanned) {
    const auto bucket = view.bucket(pos);
    if (!current_in_hand) {
      t += bucket.size();
      result.tuning_time += bucket.size();
      ++result.probes;
    }
    current_in_hand = false;
    if (bucket.hash_value() != hash) break;  // chain over: not on air
    if (scanned > 0) ++result.overflow_hops;
    const Record& record = dataset.record(static_cast<int>(bucket.record_id()));
    if (record.key == key) {
      result.found = true;
      break;
    }
    pos = (pos + 1) % num;
    if (pos == 0) t = view.NextArrivalOfPhase(0, t);
  }
  result.access_time = t - tune_in;
  return result;
}

}  // namespace

AccessResult SimpleHashing::Access(std::string_view key, Bytes tune_in) const {
  return HashingWalk(walk_.view(), key, tune_in, HashKey(key), *dataset_);
}

Result<SimpleHashing> SimpleHashing::Restore(
    std::shared_ptr<const Dataset> dataset, Channel channel,
    std::shared_ptr<const ProgramArena> arena, int allocated) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument("hashing restore needs a non-empty dataset");
  }
  if (allocated < 1 ||
      static_cast<std::size_t>(allocated) > channel.num_buckets()) {
    return Status::InvalidArgument(
        "hashing restore: resolved slot count out of range");
  }
  return SimpleHashing(std::move(dataset), std::move(channel), allocated,
                       std::move(arena));
}

}  // namespace airindex

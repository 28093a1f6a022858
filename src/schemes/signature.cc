#include "schemes/signature.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "des/random.h"

namespace airindex {

namespace {

std::uint64_t HashField(std::string_view s) {
  std::uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

SignatureGenerator::SignatureGenerator(Bytes signature_bytes,
                                       SignatureParams params)
    : signature_bytes_(signature_bytes),
      words_(static_cast<int>((signature_bytes * 8 + 63) / 64)),
      bits_(static_cast<int>(signature_bytes * 8)),
      params_(params) {}

SignatureGenerator::SignatureGenerator(const BucketGeometry& geometry,
                                       SignatureParams params)
    : SignatureGenerator(geometry.signature_bytes, params) {}

Bytes ResolveGroupSignatureBytes(const BucketGeometry& geometry,
                                 const SignatureParams& params,
                                 int group_size) {
  if (params.group_signature_bytes > 0) return params.group_signature_bytes;
  return geometry.signature_bytes *
         std::max<Bytes>(1, static_cast<Bytes>(group_size) / 4);
}

void SignatureGenerator::SuperimposeField(
    std::string_view value, std::vector<std::uint64_t>* sig) const {
  std::uint64_t h = HashField(value);
  for (int j = 0; j < params_.bits_per_attribute; ++j) {
    const int bit = static_cast<int>(h % static_cast<std::uint64_t>(bits_));
    (*sig)[static_cast<std::size_t>(bit / 64)] |= 1ULL
                                                  << (bit % 64);
    h = Mix64(h + static_cast<std::uint64_t>(j) + 1);
  }
}

std::vector<std::uint64_t> SignatureGenerator::RecordSignature(
    const Record& record) const {
  std::vector<std::uint64_t> sig(static_cast<std::size_t>(words_), 0);
  SuperimposeField(record.key, &sig);
  for (const std::string& attribute : record.attributes) {
    SuperimposeField(attribute, &sig);
  }
  return sig;
}

std::vector<std::uint64_t> SignatureGenerator::QuerySignature(
    std::string_view key) const {
  std::vector<std::uint64_t> sig(static_cast<std::size_t>(words_), 0);
  SuperimposeField(key, &sig);
  return sig;
}

bool SignatureGenerator::Matches(const std::uint64_t* record_sig,
                                 const std::uint64_t* query_sig, int words) {
  for (int w = 0; w < words; ++w) {
    if ((record_sig[w] & query_sig[w]) != query_sig[w]) return false;
  }
  return true;
}

namespace {

Status ValidateParams(const std::shared_ptr<const Dataset>& dataset,
                      const BucketGeometry& geometry,
                      const SignatureParams& params) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "signature indexing needs a non-empty dataset");
  }
  if (geometry.signature_bytes <= 0) {
    return Status::InvalidArgument("signature_bytes must be positive");
  }
  if (params.bits_per_attribute <= 0 ||
      params.bits_per_attribute > geometry.signature_bytes * 8) {
    return Status::InvalidArgument("bits_per_attribute out of range");
  }
  return Status::Ok();
}

std::size_t BlocksFor(int num_records) {
  return (static_cast<std::size_t>(num_records) + 63) / 64;
}

// Transposes the 64×64 bit matrix `m` in place: bit c of m[r] trades
// places with bit r of m[c]. Swaps ever smaller off-diagonal blocks.
void Transpose64(std::uint64_t* m) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

// The bit-sliced signature file of `num_records` bits-wide signatures,
// signature_of(r) pointing at record r's (key order): 64 records × 64
// signature bits at a time are one bit-matrix transpose.
template <typename SignatureOf>
std::vector<std::uint64_t> SliceSignatures(int num_records, int bits,
                                           SignatureOf signature_of) {
  const std::size_t blocks = BlocksFor(num_records);
  const int words = (bits + 63) / 64;
  std::vector<std::uint64_t> slices(static_cast<std::size_t>(bits) * blocks,
                                    0);
  std::uint64_t matrix[64];
  for (std::size_t block = 0; block < blocks; ++block) {
    for (int w = 0; w < words; ++w) {
      for (int i = 0; i < 64; ++i) {
        const std::size_t record = block * 64 + static_cast<std::size_t>(i);
        matrix[i] = record < static_cast<std::size_t>(num_records)
                        ? signature_of(record)[w]
                        : 0;
      }
      Transpose64(matrix);
      for (int c = 0; c < 64 && w * 64 + c < bits; ++c) {
        slices[static_cast<std::size_t>(w * 64 + c) * blocks + block] =
            matrix[c];
      }
    }
  }
  return slices;
}

bool CarriesAttribute(const Record& record, std::string_view value) {
  for (const std::string& attribute : record.attributes) {
    if (attribute == value) return true;
  }
  return false;
}

}  // namespace

SignatureIndexing::SignatureIndexing(std::shared_ptr<const Dataset> dataset,
                                     SignatureGenerator generator,
                                     Channel channel,
                                     std::vector<std::uint64_t> slices,
                                     std::shared_ptr<const ProgramArena> arena)
    : dataset_(std::move(dataset)),
      generator_(generator),
      channel_(std::move(channel)),
      slices_(std::move(slices)),
      blocks_(BlocksFor(dataset_->size())),
      walk_(channel_, std::move(arena)) {}

Result<SignatureIndexing> SignatureIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params) {
  if (Status status = ValidateParams(dataset, geometry, params);
      !status.ok()) {
    return status;
  }

  SignatureGenerator generator(geometry, params);
  std::vector<Bucket> buckets;
  buckets.reserve(static_cast<std::size_t>(2 * dataset->size()));
  for (const Record& record : dataset->records()) {
    std::vector<std::uint64_t> sig = generator.RecordSignature(record);

    Bucket sig_bucket;
    sig_bucket.kind = BucketKind::kSignature;
    sig_bucket.size = geometry.signature_bucket_bytes();
    sig_bucket.record_id = static_cast<std::int64_t>(record.id);
    sig_bucket.signature = std::move(sig);
    buckets.push_back(std::move(sig_bucket));

    Bucket data_bucket;
    data_bucket.kind = BucketKind::kData;
    data_bucket.size = geometry.data_bucket_bytes();
    data_bucket.record_id = static_cast<std::int64_t>(record.id);
    buckets.push_back(std::move(data_bucket));
  }

  // Record r's signature rides in bucket 2r.
  std::vector<std::uint64_t> slices = SliceSignatures(
      dataset->size(), static_cast<int>(geometry.signature_bytes * 8),
      [&](std::size_t r) { return buckets[2 * r].signature.data(); });

  Result<Channel> channel = Channel::Create(std::move(buckets));
  if (!channel.ok()) return channel.status();
  return SignatureIndexing(std::move(dataset), generator,
                           std::move(channel).value(), std::move(slices));
}

std::vector<std::size_t> SignatureIndexing::QueryRows(
    std::string_view key) const {
  const std::vector<std::uint64_t> query = generator_.QuerySignature(key);
  std::vector<std::size_t> rows;
  for (std::size_t w = 0; w < query.size(); ++w) {
    for (std::uint64_t word = query[w]; word != 0; word &= word - 1) {
      const std::size_t bit = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(word));
      rows.push_back(bit * blocks_);
    }
  }
  return rows;
}

template <typename Visit>
void SignatureIndexing::Sift(const std::vector<std::size_t>& rows, int first,
                             int count, Visit&& visit) const {
  // AND the query's rows over the blocks of one linear range, masking the
  // range's edge blocks.
  const auto sift_linear = [&](int begin, int end) {
    if (begin >= end) return;
    const int first_block = begin / 64;
    const int last_block = (end - 1) / 64;
    for (int block = first_block; block <= last_block; ++block) {
      std::uint64_t mask = ~0ULL;
      if (block == first_block) mask &= ~0ULL << (begin % 64);
      if (block == last_block) mask &= ~0ULL >> (63 - (end - 1) % 64);
      // No early exit once the mask is zero: that branch mispredicts
      // often enough to cost more than the remaining loads.
      for (const std::size_t row : rows) {
        mask &= slices_[row + static_cast<std::size_t>(block)];
      }
      if (mask != 0) visit(block, mask);
    }
  };
  // The circular range is at most two linear ones: [first, num) and the
  // wrapped [0, rest).
  const int head = std::min(count, dataset_->size() - first);
  sift_linear(first, first + head);
  sift_linear(0, count - head);
}

int SignatureIndexing::CountSifted(const std::vector<std::size_t>& rows,
                                   int first, int count) const {
  int matches = 0;
  Sift(rows, first, count, [&](int, std::uint64_t mask) {
    matches += std::popcount(mask);
  });
  return matches;
}

bool SignatureIndexing::RecordMatches(const std::vector<std::size_t>& rows,
                                      int position) const {
  const std::size_t block = static_cast<std::size_t>(position) / 64;
  const int bit = position % 64;
  for (const std::size_t row : rows) {
    if (((slices_[row + block] >> bit) & 1) == 0) return false;
  }
  return true;
}

// Closed-form signature sift: the channel view supplies the bucket
// sizes, the slices the matches.
AccessResult SignatureIndexing::Access(std::string_view key,
                                       Bytes tune_in) const {
  const ArenaChannelView& view = walk_.view();
  const Bytes it = view.bucket(0).size();   // signature bucket
  const Bytes dt = view.bucket(1).size();   // data bucket
  const Bytes period = it + dt;
  const int pairs = dataset_->size();
  const Bytes cycle = view.cycle_bytes();

  AccessResult result;
  // Listen until the next complete signature bucket.
  const Bytes phase = tune_in % cycle;
  const Bytes pair_index = phase / period;
  const Bytes in_pair = phase % period;
  Bytes wait = 0;
  int start = static_cast<int>(pair_index);
  if (in_pair != 0) {
    wait = period - in_pair;
    start = static_cast<int>((pair_index + 1) % pairs);
  }
  result.access_time = wait;
  result.tuning_time = wait;

  const std::vector<std::size_t> rows = QueryRows(key);
  const int target = dataset_->FindIndex(key);
  if (target >= 0) {
    const int scanned = (target - start + pairs) % pairs + 1;
    const int matches = CountSifted(rows, start, scanned);
    result.false_drops = matches - 1;  // the target always matches
    result.probes = scanned + matches;
    result.index_probes = scanned;
    result.tuning_time += static_cast<Bytes>(scanned) * it +
                          static_cast<Bytes>(matches) * dt;
    result.access_time += static_cast<Bytes>(scanned) * period;
    result.found = true;
    return result;
  }

  // Not on air: the client concludes only after one full cycle of
  // signatures; every match it downloaded was a false drop.
  const int matches = CountSifted(rows, start, pairs);
  result.false_drops = matches;
  result.probes = pairs + matches;
  result.index_probes = pairs;
  result.tuning_time +=
      static_cast<Bytes>(pairs) * it + static_cast<Bytes>(matches) * dt;
  const bool last_matched = RecordMatches(rows, (start + pairs - 1) % pairs);
  result.access_time += static_cast<Bytes>(pairs - 1) * period + it +
                        (last_matched ? dt : 0);
  return result;
}

AccessResult SignatureIndexing::AccessReference(std::string_view key,
                                                Bytes tune_in) const {
  AccessResult result;
  const Bytes cycle = channel_.cycle_bytes();
  const std::vector<std::uint64_t> query = generator_.QuerySignature(key);
  const int words = generator_.words();

  // Advance to the next complete signature bucket, listening.
  Bytes t = tune_in;
  {
    const Bytes phase = t % cycle;
    std::size_t i = channel_.BucketAtPhase(phase);
    if (channel_.start_phase(i) != phase ||
        channel_.bucket(i).kind != BucketKind::kSignature) {
      // Move to the next signature bucket start.
      do {
        i = (i + 1) % channel_.num_buckets();
      } while (channel_.bucket(i).kind != BucketKind::kSignature);
      t = channel_.NextArrivalOfPhase(channel_.start_phase(i), t);
    }
  }
  result.tuning_time = t - tune_in;

  const int pairs = dataset_->size();
  for (int scanned = 0; scanned < pairs; ++scanned) {
    const std::size_t i = channel_.BucketAtPhase(t % cycle);
    const Bucket& sig_bucket = channel_.bucket(i);
    t += sig_bucket.size;
    result.tuning_time += sig_bucket.size;
    ++result.probes;
    const bool match = SignatureGenerator::Matches(sig_bucket.signature.data(),
                                                   query.data(), words);
    if (match) {
      // Download the data bucket that follows.
      const Bucket& data_bucket =
          channel_.bucket((i + 1) % channel_.num_buckets());
      t += data_bucket.size;
      result.tuning_time += data_bucket.size;
      ++result.probes;
      const Record& record =
          dataset_->record(static_cast<int>(data_bucket.record_id));
      if (record.key == key) {
        result.found = true;
        break;
      }
      ++result.false_drops;
    }
    if (scanned + 1 == pairs) break;  // whole cycle sifted: not on air
    // Doze until the next signature bucket.
    const Bytes next_sig_phase =
        channel_.start_phase((i + 2) % channel_.num_buckets());
    t = channel_.NextArrivalOfPhase(next_sig_phase, t);
  }
  result.access_time = t - tune_in;
  return result;
}

FilterResult SignatureIndexing::Filter(std::string_view value,
                                       Bytes tune_in) const {
  const Bytes it = channel_.bucket(0).size;
  const Bytes dt = channel_.bucket(1).size;
  const Bytes period = it + dt;
  const int pairs = dataset_->size();
  const Bytes cycle = channel_.cycle_bytes();

  FilterResult result;
  // Listen until the next complete signature bucket (as in Access).
  const Bytes phase = tune_in % cycle;
  const Bytes pair_index = phase / period;
  const Bytes in_pair = phase % period;
  Bytes wait = 0;
  int start = static_cast<int>(pair_index);
  if (in_pair != 0) {
    wait = period - in_pair;
    start = static_cast<int>((pair_index + 1) % pairs);
  }

  // Sift one full cycle, downloading every match in broadcast order.
  const std::vector<std::size_t> rows = QueryRows(value);
  int downloads = 0;
  Sift(rows, start, pairs, [&](int block, std::uint64_t mask) {
    for (; mask != 0; mask &= mask - 1) {
      const int position = block * 64 + std::countr_zero(mask);
      ++downloads;
      if (CarriesAttribute(dataset_->record(position), value)) {
        result.matches.push_back(position);
      } else {
        ++result.false_drops;
      }
    }
  });
  result.probes = pairs + downloads;
  result.tuning_time = wait + static_cast<Bytes>(pairs) * it +
                       static_cast<Bytes>(downloads) * dt;
  // The pass ends after the last pair's signature (plus its download when
  // the signature matched).
  const bool last_pair_downloaded =
      RecordMatches(rows, (start + pairs - 1) % pairs);
  result.access_time = wait + static_cast<Bytes>(pairs - 1) * period + it +
                       (last_pair_downloaded ? dt : 0);
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

double SignatureIndexing::MeasureFalseDropRate(int sample_queries,
                                               std::uint64_t seed) const {
  const int num = dataset_->size();
  if (num < 2 || sample_queries <= 0) return 0.0;
  Rng rng(seed);
  std::int64_t pairs_checked = 0;
  std::int64_t drops = 0;
  for (int q = 0; q < sample_queries; ++q) {
    const int target =
        static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(num)));
    const int matches =
        CountSifted(QueryRows(dataset_->record(target).key), 0, num);
    drops += matches - 1;
    pairs_checked += num - 1;
  }
  return static_cast<double>(drops) / static_cast<double>(pairs_checked);
}

Result<SignatureIndexing> SignatureIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, Channel channel,
    std::shared_ptr<const ProgramArena> arena) {
  if (Status status = ValidateParams(dataset, geometry, params);
      !status.ok()) {
    return status;
  }
  SignatureGenerator generator(geometry, params);
  const int words = generator.words();
  const int bits = static_cast<int>(geometry.signature_bytes * 8);
  const int num_records = dataset->size();
  // A signature carries no bit at or past the signature width.
  const int tail_bits = bits % 64;
  std::vector<const std::uint64_t*> signatures(
      static_cast<std::size_t>(num_records), nullptr);
  int recovered = 0;
  for (std::size_t i = 0; i < channel.num_buckets(); ++i) {
    const Bucket& bucket = channel.bucket(i);
    if (bucket.kind != BucketKind::kSignature) continue;
    if (bucket.record_id < 0 || bucket.record_id >= num_records ||
        bucket.signature.size() != static_cast<std::size_t>(words) ||
        (tail_bits != 0 && (bucket.signature.back() >> tail_bits) != 0) ||
        signatures[static_cast<std::size_t>(bucket.record_id)] != nullptr) {
      return Status::InvalidArgument(
          "signature restore: malformed signature bucket");
    }
    signatures[static_cast<std::size_t>(bucket.record_id)] =
        bucket.signature.data();
    ++recovered;
  }
  if (recovered != num_records) {
    return Status::InvalidArgument(
        "signature restore: channel carries " + std::to_string(recovered) +
        " record signatures for " + std::to_string(num_records) + " records");
  }
  std::vector<std::uint64_t> slices =
      SliceSignatures(num_records, bits,
                      [&](std::size_t r) { return signatures[r]; });
  return SignatureIndexing(std::move(dataset), generator, std::move(channel),
                           std::move(slices), std::move(arena));
}

}  // namespace airindex

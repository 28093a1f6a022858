#include "broadcast/arena.h"

#include <cstring>
#include <string>
#include <utility>

namespace airindex {

namespace {

constexpr std::size_t kAlign = 8;

std::size_t AlignUp(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// memcpy for a section that may be empty: an empty vector's data() may
/// be null, and passing null to memcpy is undefined even for 0 bytes.
void CopySection(void* dst, const void* src, std::size_t bytes) {
  if (bytes > 0) std::memcpy(dst, src, bytes);
}

/// Hash of a short string, eight bytes at a time (keys are ~25 bytes).
/// Only the interner's table placement depends on it, never the bytes
/// Flatten writes.
std::uint64_t HashBytes(std::string_view s) {
  std::uint64_t h = s.size();
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, s.data() + i, 8);
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  if (i < s.size()) {
    // Byte by byte: a variable-length memcpy would be a library call.
    std::uint64_t word = 0;
    for (; i < s.size(); ++i) {
      word = (word << 8) | static_cast<unsigned char>(s[i]);
    }
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  }
  h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 32);
}

/// Deterministic, allocation-free string interner for one Flatten call:
/// first-touch append order, duplicates collapse to the first
/// occurrence, the empty string is always {0, 0}. A lookup hashes the
/// caller's view in place (the source channel's bucket strings and
/// dataset-owned pointer keys, alive for the call) and compares it
/// against the pool bytes of a candidate with the same hash, so it never
/// builds a string. Open addressing over (hash, index) slots; the table
/// doubles when half full.
class StringInterner {
 public:
  explicit StringInterner(std::size_t pool_capacity) : slots_(1024) {
    pool_.reserve(pool_capacity);
  }

  ArenaStrRef Intern(std::string_view s) {
    if (s.empty()) return ArenaStrRef{0, 0};
    const auto hash = static_cast<std::uint32_t>(HashBytes(s));
    std::size_t i = hash & (slots_.size() - 1);
    for (; slots_[i].index != 0; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].hash != hash) continue;
      const ArenaStrRef ref = refs_[slots_[i].index - 1];
      if (ref.length == s.size() &&
          std::memcmp(pool_.data() + ref.offset, s.data(), s.size()) == 0) {
        return ref;
      }
    }
    const ArenaStrRef ref{static_cast<std::uint32_t>(pool_.size()),
                          static_cast<std::uint32_t>(s.size())};
    pool_.append(s);
    refs_.push_back(ref);
    slots_[i] = Slot{hash, static_cast<std::uint32_t>(refs_.size())};
    if (2 * refs_.size() > slots_.size()) Grow();
    return ref;
  }

  /// The interned strings end to end, in first-touch order.
  const std::string& pool() const { return pool_; }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t index = 0;  // 1 + index into refs_; 0 = empty
  };

  void Grow() {
    std::vector<Slot> grown(2 * slots_.size());
    const std::size_t mask = grown.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.index == 0) continue;
      std::size_t i = slot.hash & mask;
      while (grown[i].index != 0) i = (i + 1) & mask;
      grown[i] = slot;
    }
    slots_ = std::move(grown);
  }

  std::vector<Slot> slots_;
  std::vector<ArenaStrRef> refs_;  // first-touch order
  std::string pool_;
};

}  // namespace

std::uint64_t Fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

ProgramArena ProgramArena::Flatten(const std::vector<const Channel*>& channels,
                                   Bytes switch_cost_bytes, int scheme_kind,
                                   std::uint64_t dataset_fingerprint,
                                   std::uint64_t params_fingerprint,
                                   const std::vector<std::int64_t>& aux) {
  // Counting pass: exact bucket, entry and word counts, and the string
  // bytes before deduplication — an upper bound on the string pool.
  std::size_t num_buckets = 0;
  std::size_t num_entries = 0;
  std::size_t num_words = 0;
  std::size_t string_bytes = 0;
  for (const Channel* channel : channels) {
    num_buckets += channel->num_buckets();
    for (const Bucket& b : channel->buckets()) {
      num_entries += b.local.size() + b.control.size();
      num_words += b.signature.size();
      string_bytes +=
          b.range_lo.size() + b.range_hi.size() + b.last_broadcast_key.size();
      for (const auto* source : {&b.local, &b.control}) {
        for (const PointerEntry& e : *source) {
          string_bytes += e.key_lo.size() + e.key_hi.size();
        }
      }
    }
  }

  ArenaHeader header;
  header.magic = kMagic;
  header.format_version = kFormatVersion;
  header.scheme_kind = scheme_kind;
  header.num_channels = static_cast<std::uint32_t>(channels.size());
  header.switch_cost_bytes = switch_cost_bytes;
  header.dataset_fingerprint = dataset_fingerprint;
  header.params_fingerprint = params_fingerprint;

  std::size_t at = sizeof(ArenaHeader);
  header.channels_offset = static_cast<std::uint32_t>(at);
  at = AlignUp(at + channels.size() * sizeof(ArenaChannelDesc));
  header.buckets_offset = static_cast<std::uint32_t>(at);
  header.num_buckets = static_cast<std::uint32_t>(num_buckets);
  at = AlignUp(at + num_buckets * sizeof(ArenaBucket));
  header.entries_offset = static_cast<std::uint32_t>(at);
  header.num_entries = static_cast<std::uint32_t>(num_entries);
  at = AlignUp(at + num_entries * sizeof(ArenaPointerEntry));
  header.words_offset = static_cast<std::uint32_t>(at);
  header.num_words = static_cast<std::uint32_t>(num_words);
  at = AlignUp(at + num_words * sizeof(std::uint64_t));
  header.strings_offset = static_cast<std::uint32_t>(at);

  // The buffer's capacity covers the largest possible string pool, so
  // growing it to the final size below never moves the sections already
  // written (the unused tail is address space, never touched).
  ProgramArena arena;
  arena.bytes_.reserve(at + AlignUp(string_bytes) +
                       aux.size() * sizeof(std::int64_t));
  arena.bytes_.resize(at);  // alignment pads stay zero — determinism
  std::uint8_t* base = arena.bytes_.data();

  // Write pass, in a fixed traversal order: channels in order, buckets
  // in cycle order; per bucket range_lo, range_hi, last_broadcast_key,
  // then local entries before control entries (key_lo, key_hi each).
  // The interner hands out string refs in that order, so re-flattening
  // an inflated arena reproduces the pool, and with it the bytes. Every
  // bucket, entry and word is written once, at its final offset.
  StringInterner strings(string_bytes);
  std::uint8_t* desc_out = base + header.channels_offset;
  std::uint8_t* bucket_out = base + header.buckets_offset;
  std::uint8_t* entry_out = base + header.entries_offset;
  std::uint8_t* word_out = base + header.words_offset;
  std::uint32_t bucket_index = 0;
  std::uint32_t entry_index = 0;
  std::uint32_t word_index = 0;

  const auto write_entries =
      [&](const std::vector<PointerEntry>& source) -> std::uint32_t {
    const std::uint32_t first = entry_index;
    for (const PointerEntry& e : source) {
      ArenaPointerEntry flat;
      flat.key_lo = strings.Intern(e.key_lo);
      flat.key_hi = strings.Intern(e.key_hi);
      flat.target_phase = e.target_phase;
      flat.target_channel = e.target_channel;
      std::memcpy(entry_out, &flat, sizeof(flat));
      entry_out += sizeof(flat);
      ++entry_index;
    }
    return first;
  };

  for (const Channel* channel : channels) {
    ArenaChannelDesc desc;
    desc.first_bucket = bucket_index;
    desc.bucket_count = static_cast<std::uint32_t>(channel->num_buckets());
    std::memcpy(desc_out, &desc, sizeof(desc));
    desc_out += sizeof(desc);
    for (const Bucket& b : channel->buckets()) {
      ArenaBucket flat;
      flat.size = b.size;
      flat.record_id = b.record_id;
      flat.next_index_segment_phase = b.next_index_segment_phase;
      flat.slot = b.slot;
      flat.hash_value = b.hash_value;
      flat.shift_phase = b.shift_phase;
      flat.range_lo = strings.Intern(b.range_lo);
      flat.range_hi = strings.Intern(b.range_hi);
      flat.last_broadcast_key = strings.Intern(b.last_broadcast_key);
      flat.local_first = write_entries(b.local);
      flat.local_count = static_cast<std::uint32_t>(b.local.size());
      flat.control_first = write_entries(b.control);
      flat.control_count = static_cast<std::uint32_t>(b.control.size());
      flat.signature_first = word_index;
      flat.signature_count = static_cast<std::uint32_t>(b.signature.size());
      CopySection(word_out, b.signature.data(),
                  b.signature.size() * sizeof(std::uint64_t));
      word_out += b.signature.size() * sizeof(std::uint64_t);
      word_index += flat.signature_count;
      flat.level = b.level;
      flat.kind = static_cast<std::uint8_t>(b.kind);
      std::memcpy(bucket_out, &flat, sizeof(flat));
      bucket_out += sizeof(flat);
      ++bucket_index;
    }
  }

  // The pool's size is known now; the aux section follows it.
  header.string_pool_bytes = static_cast<std::uint32_t>(strings.pool().size());
  at = AlignUp(at + strings.pool().size());
  header.aux_offset = static_cast<std::uint32_t>(at);
  header.num_aux = static_cast<std::uint32_t>(aux.size());
  at = AlignUp(at + aux.size() * sizeof(std::int64_t));
  header.total_bytes = static_cast<std::uint32_t>(at);
  arena.bytes_.resize(at);  // within capacity: no reallocation
  base = arena.bytes_.data();
  std::memcpy(base, &header, sizeof(header));
  CopySection(base + header.strings_offset, strings.pool().data(),
              strings.pool().size());
  CopySection(base + header.aux_offset, aux.data(),
              aux.size() * sizeof(std::int64_t));
  return arena;
}

Result<ProgramArena> ProgramArena::FromBytes(std::vector<std::uint8_t> bytes) {
  ProgramArena arena;
  arena.bytes_ = std::move(bytes);
  if (Status status = arena.Validate(); !status.ok()) return status;
  return arena;
}

std::uint64_t ProgramArena::Checksum() const {
  return Fnv1a64(bytes_.data(), bytes_.size());
}

const ArenaHeader& ProgramArena::header() const {
  return *reinterpret_cast<const ArenaHeader*>(bytes_.data());
}

const ArenaChannelDesc& ProgramArena::channel_desc(int i) const {
  return *reinterpret_cast<const ArenaChannelDesc*>(
      bytes_.data() + header().channels_offset +
      static_cast<std::size_t>(i) * sizeof(ArenaChannelDesc));
}

const ArenaBucket& ProgramArena::bucket(std::uint32_t i) const {
  return *reinterpret_cast<const ArenaBucket*>(
      bytes_.data() + header().buckets_offset +
      static_cast<std::size_t>(i) * sizeof(ArenaBucket));
}

const ArenaPointerEntry& ProgramArena::entry(std::uint32_t i) const {
  return *reinterpret_cast<const ArenaPointerEntry*>(
      bytes_.data() + header().entries_offset +
      static_cast<std::size_t>(i) * sizeof(ArenaPointerEntry));
}

std::uint64_t ProgramArena::word(std::uint32_t i) const {
  std::uint64_t value;
  std::memcpy(&value,
              bytes_.data() + header().words_offset +
                  static_cast<std::size_t>(i) * sizeof(std::uint64_t),
              sizeof(value));
  return value;
}

std::string_view ProgramArena::str(const ArenaStrRef& ref) const {
  return std::string_view(
      reinterpret_cast<const char*>(bytes_.data() + header().strings_offset +
                                    ref.offset),
      ref.length);
}

std::vector<std::int64_t> ProgramArena::aux() const {
  std::vector<std::int64_t> values(header().num_aux);
  CopySection(values.data(), bytes_.data() + header().aux_offset,
              values.size() * sizeof(std::int64_t));
  return values;
}

Status ProgramArena::Validate() const {
  if (bytes_.size() < sizeof(ArenaHeader)) {
    return Status::InvalidArgument("arena: buffer shorter than header");
  }
  const ArenaHeader& h = header();
  if (h.magic != kMagic) {
    return Status::InvalidArgument("arena: bad magic");
  }
  if (h.format_version != kFormatVersion) {
    return Status::InvalidArgument(
        "arena: format version " + std::to_string(h.format_version) +
        " unsupported (want " + std::to_string(kFormatVersion) + ")");
  }
  if (h.total_bytes != bytes_.size()) {
    return Status::InvalidArgument(
        "arena: header claims " + std::to_string(h.total_bytes) +
        " bytes, buffer has " + std::to_string(bytes_.size()));
  }
  const auto section_ok = [&](std::uint64_t offset, std::uint64_t count,
                              std::uint64_t unit) {
    return offset <= bytes_.size() && count * unit <= bytes_.size() - offset;
  };
  if (!section_ok(h.channels_offset, h.num_channels,
                  sizeof(ArenaChannelDesc)) ||
      !section_ok(h.buckets_offset, h.num_buckets, sizeof(ArenaBucket)) ||
      !section_ok(h.entries_offset, h.num_entries,
                  sizeof(ArenaPointerEntry)) ||
      !section_ok(h.words_offset, h.num_words, sizeof(std::uint64_t)) ||
      !section_ok(h.strings_offset, h.string_pool_bytes, 1) ||
      !section_ok(h.aux_offset, h.num_aux, sizeof(std::int64_t))) {
    return Status::InvalidArgument("arena: section out of buffer bounds");
  }
  const auto str_ok = [&](const ArenaStrRef& ref) {
    return ref.offset <= h.string_pool_bytes &&
           ref.length <= h.string_pool_bytes - ref.offset;
  };
  const auto span_ok = [](std::uint32_t first, std::uint32_t count,
                          std::uint32_t total) {
    return first <= total && count <= total - first;
  };
  for (std::uint32_t c = 0; c < h.num_channels; ++c) {
    const ArenaChannelDesc& desc = channel_desc(static_cast<int>(c));
    if (!span_ok(desc.first_bucket, desc.bucket_count, h.num_buckets)) {
      return Status::InvalidArgument("arena: channel bucket span out of "
                                     "bounds");
    }
  }
  for (std::uint32_t i = 0; i < h.num_buckets; ++i) {
    const ArenaBucket& b = bucket(i);
    if (b.kind > static_cast<std::uint8_t>(BucketKind::kSignature)) {
      return Status::InvalidArgument("arena: bucket with unknown kind");
    }
    if (!str_ok(b.range_lo) || !str_ok(b.range_hi) ||
        !str_ok(b.last_broadcast_key)) {
      return Status::InvalidArgument("arena: bucket string ref out of pool");
    }
    if (!span_ok(b.local_first, b.local_count, h.num_entries) ||
        !span_ok(b.control_first, b.control_count, h.num_entries)) {
      return Status::InvalidArgument("arena: bucket entry span out of pool");
    }
    if (!span_ok(b.signature_first, b.signature_count, h.num_words)) {
      return Status::InvalidArgument("arena: bucket word span out of pool");
    }
  }
  for (std::uint32_t i = 0; i < h.num_entries; ++i) {
    const ArenaPointerEntry& e = entry(i);
    if (!str_ok(e.key_lo) || !str_ok(e.key_hi)) {
      return Status::InvalidArgument("arena: pointer-entry key ref out of "
                                     "pool");
    }
  }
  return Status::Ok();
}

Result<std::vector<Channel>> ProgramArena::InflateChannels() const {
  if (Status status = Validate(); !status.ok()) return status;
  const ArenaHeader& h = header();
  std::vector<Channel> channels;
  channels.reserve(h.num_channels);
  for (std::uint32_t c = 0; c < h.num_channels; ++c) {
    const ArenaChannelDesc& desc = channel_desc(static_cast<int>(c));
    std::vector<Bucket> buckets;
    buckets.reserve(desc.bucket_count);
    for (std::uint32_t i = 0; i < desc.bucket_count; ++i) {
      const ArenaBucket& flat = bucket(desc.first_bucket + i);
      Bucket b;
      b.kind = static_cast<BucketKind>(flat.kind);
      b.size = flat.size;
      b.record_id = flat.record_id;
      b.next_index_segment_phase = flat.next_index_segment_phase;
      b.level = flat.level;
      b.range_lo = std::string(str(flat.range_lo));
      b.range_hi = std::string(str(flat.range_hi));
      b.last_broadcast_key = std::string(str(flat.last_broadcast_key));
      b.slot = flat.slot;
      b.hash_value = flat.hash_value;
      b.shift_phase = flat.shift_phase;
      const auto inflate_entries = [&](std::uint32_t first,
                                       std::uint32_t count,
                                       std::vector<PointerEntry>* out) {
        out->reserve(count);
        for (std::uint32_t e = 0; e < count; ++e) {
          const ArenaPointerEntry& flat_entry = entry(first + e);
          PointerEntry pe;
          // Views into this arena's string pool: the arena must outlive
          // the inflated channels.
          pe.key_lo = str(flat_entry.key_lo);
          pe.key_hi = str(flat_entry.key_hi);
          pe.target_phase = flat_entry.target_phase;
          pe.target_channel = flat_entry.target_channel;
          out->push_back(pe);
        }
      };
      inflate_entries(flat.local_first, flat.local_count, &b.local);
      inflate_entries(flat.control_first, flat.control_count, &b.control);
      b.signature.reserve(flat.signature_count);
      for (std::uint32_t w = 0; w < flat.signature_count; ++w) {
        b.signature.push_back(word(flat.signature_first + w));
      }
      buckets.push_back(std::move(b));
    }
    Result<Channel> channel = Channel::Create(std::move(buckets));
    if (!channel.ok()) return channel.status();
    channels.push_back(std::move(channel).value());
  }
  return channels;
}

}  // namespace airindex

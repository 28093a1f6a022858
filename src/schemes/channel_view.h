// Layer: 4 (schemes) — see docs/ARCHITECTURE.md for the layer map.
//
// The channel view every client access walk traverses. Each scheme's
// protocol is one function template over a View, instantiated once, with
// ArenaChannelView: buckets, index entries and signature words are
// resolved via 32-bit offset arithmetic over the flattened program
// buffer (broadcast/arena.h) — no rebuilt trees, no per-bucket heap
// vectors, no pointer chasing.
//
// Every scheme binds its view once, when it is constructed (ArenaWalk):
// Build flattens the scheme's own channel, Restore binds the arena the
// scheme was restored from. The arena's bucket pool is written in cycle
// order and its entry pool in local-before-control order
// (ProgramArena::Flatten), so span [first, first+count) of the pools is
// exactly the corresponding Channel bucket's vector, and a walk reads
// the same values the built Channel holds.
#ifndef AIRINDEX_SCHEMES_CHANNEL_VIEW_H_
#define AIRINDEX_SCHEMES_CHANNEL_VIEW_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "broadcast/arena.h"
#include "broadcast/channel.h"

namespace airindex {

/// A resolved index-entry lookup: `found` plus the entry's target phase.
/// The single-channel walks never follow cross-channel targets, so the
/// phase is all a protocol needs.
struct EntryView {
  bool found = false;
  Bytes target_phase = kInvalidPhase;
};

/// View over a flattened single-channel program. Holds raw base pointers
/// into the arena buffer (stable across moves — the buffer is heap
/// storage kept alive by the owning ArenaWalk) and resolves
/// every walk step by offset arithmetic. Phase math mirrors Channel
/// exactly, including the uniform-size fast path.
class ArenaChannelView {
 public:
  /// Proxy over one ArenaBucket.
  class BucketRef {
   public:
    BucketRef(const ArenaChannelView* view, const ArenaBucket* b)
        : view_(view), b_(b) {}

    Bytes size() const { return b_->size; }
    BucketKind kind() const { return static_cast<BucketKind>(b_->kind); }
    int level() const { return b_->level; }
    std::int64_t record_id() const { return b_->record_id; }
    Bytes next_index_segment_phase() const {
      return b_->next_index_segment_phase;
    }
    std::int64_t hash_value() const { return b_->hash_value; }
    Bytes shift_phase() const { return b_->shift_phase; }
    std::string_view range_lo() const { return view_->str(b_->range_lo); }
    std::string_view range_hi() const { return view_->str(b_->range_hi); }
    std::string_view last_broadcast_key() const {
      return view_->str(b_->last_broadcast_key);
    }

    /// Binary search over the local-entry span; same result as
    /// FindCoveringEntry on the inflated vector (the span holds the same
    /// entries in the same sorted order).
    EntryView FindLocal(std::string_view key) const {
      std::uint32_t lo = b_->local_first;
      std::uint32_t hi = b_->local_first + b_->local_count;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (view_->str(view_->entries_[mid].key_hi) < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == b_->local_first + b_->local_count) return {};
      const ArenaPointerEntry& entry = view_->entries_[lo];
      if (view_->str(entry.key_lo) > key) return {};
      return {true, entry.target_phase};
    }

    EntryView FindControlUp(std::string_view key) const {
      const std::uint32_t end = b_->control_first + b_->control_count;
      for (std::uint32_t i = b_->control_first; i < end; ++i) {
        const ArenaPointerEntry& entry = view_->entries_[i];
        if (key <= view_->str(entry.key_hi)) {
          return {true, entry.target_phase};
        }
      }
      return {};
    }

    const std::uint64_t* signature_words() const {
      return view_->words_ + b_->signature_first;
    }
    int signature_word_count() const {
      return static_cast<int>(b_->signature_count);
    }

   private:
    const ArenaChannelView* view_;
    const ArenaBucket* b_;
  };

  /// Binds the view to channel 0 of `arena`, a validated single-channel
  /// program whose channel 0 inflates to a valid Channel (non-empty,
  /// positive bucket sizes) — what Flatten of a built Channel and a
  /// successful restore both guarantee.
  explicit ArenaChannelView(const ProgramArena& arena) {
    const ArenaChannelDesc& desc = arena.channel_desc(0);
    const ArenaHeader& header = arena.header();
    const std::uint8_t* base = arena.bytes().data();
    buckets_ = reinterpret_cast<const ArenaBucket*>(base +
                                                    header.buckets_offset) +
               desc.first_bucket;
    entries_ = reinterpret_cast<const ArenaPointerEntry*>(
        base + header.entries_offset);
    words_ =
        reinterpret_cast<const std::uint64_t*>(base + header.words_offset);
    strings_ = reinterpret_cast<const char*>(base + header.strings_offset);
    num_buckets_ = desc.bucket_count;
    starts_.reserve(num_buckets_);
    Bytes at = 0;
    bool uniform = true;
    const Bytes first_size = buckets_[0].size;
    for (std::uint32_t i = 0; i < num_buckets_; ++i) {
      starts_.push_back(at);
      at += buckets_[i].size;
      uniform = uniform && buckets_[i].size == first_size;
    }
    cycle_bytes_ = at;
    uniform_ = uniform;
    uniform_size_ = first_size;
  }

  Bytes cycle_bytes() const { return cycle_bytes_; }
  std::size_t num_buckets() const { return num_buckets_; }
  BucketRef bucket(std::size_t i) const {
    return BucketRef(this, buckets_ + i);
  }
  Bytes start_phase(std::size_t i) const { return starts_[i]; }

  std::size_t BucketAtPhase(Bytes phase) const {
    if (uniform_) return static_cast<std::size_t>(phase / uniform_size_);
    std::size_t lo = 0;
    std::size_t hi = num_buckets_;
    // upper_bound(starts_, phase) - 1, as Channel::BucketAtPhase.
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (starts_[mid] <= phase) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo - 1;
  }

  Bytes NextBoundaryTime(Bytes now) const {
    const Bytes phase = now % cycle_bytes_;
    const std::size_t i = BucketAtPhase(phase);
    if (starts_[i] == phase) return now;
    return now + (starts_[i] + buckets_[i].size - phase);
  }

  Bytes NextArrivalOfPhase(Bytes phase, Bytes now) const {
    const Bytes current = now % cycle_bytes_;
    Bytes delta = phase - current;
    if (delta < 0) delta += cycle_bytes_;
    return now + delta;
  }

 private:
  friend class BucketRef;

  std::string_view str(const ArenaStrRef& ref) const {
    return std::string_view(strings_ + ref.offset, ref.length);
  }

  const ArenaBucket* buckets_ = nullptr;
  const ArenaPointerEntry* entries_ = nullptr;
  const std::uint64_t* words_ = nullptr;
  const char* strings_ = nullptr;
  std::uint32_t num_buckets_ = 0;
  Bytes cycle_bytes_ = 0;
  bool uniform_ = false;
  Bytes uniform_size_ = 0;
  std::vector<Bytes> starts_;
};

/// A scheme's walk surface: the flattened program and the view bound to
/// it. Holding the arena keeps the view's base pointers valid — and, on
/// a restored scheme, the arena string pool its inflated Channel's key
/// views point into.
class ArenaWalk {
 public:
  /// Binds `arena`, the single-channel program `channel` was inflated
  /// from (the restore path), or — when `arena` is null, the build
  /// path — flattens `channel` walk-only (untagged, no aux) and binds
  /// that.
  explicit ArenaWalk(const Channel& channel,
                     std::shared_ptr<const ProgramArena> arena = nullptr)
      : arena_(arena != nullptr
                   ? std::move(arena)
                   : std::make_shared<const ProgramArena>(
                         ProgramArena::Flatten({&channel},
                                               /*switch_cost_bytes=*/0,
                                               /*scheme_kind=*/-1,
                                               /*dataset_fingerprint=*/0,
                                               /*params_fingerprint=*/0,
                                               /*aux=*/{}))),
        view_(*arena_) {}

  const ArenaChannelView& view() const { return view_; }

 private:
  std::shared_ptr<const ProgramArena> arena_;
  ArenaChannelView view_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_CHANNEL_VIEW_H_

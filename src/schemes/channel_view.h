// Layer: 4 (schemes) — see docs/ARCHITECTURE.md for the layer map.
//
// Channel views: the two representations a client access walk can
// traverse. Every scheme's protocol is written once as a function
// template over a View; instantiating it with
//
//  - PointerChannelView walks the inflated Channel/Bucket structures
//    (the original pointer-chasing path), while
//  - ArenaChannelView resolves buckets, index entries and signature
//    words via 32-bit offset arithmetic over the flattened program
//    buffer (broadcast/arena.h) — no rebuilt trees, no per-bucket heap
//    vectors, no pointer chasing.
//
// Both views expose the same duck-typed interface and are observably
// identical: the arena's bucket pool is written in cycle order and its
// entry pool in local-before-control order (ProgramArena::Flatten), so
// span [first, first+count) of the pools is exactly the corresponding
// bucket's vector. tests/invariants_test.cc shadows every randomized
// walk on both views and asserts field-by-field equality.
#ifndef AIRINDEX_SCHEMES_CHANNEL_VIEW_H_
#define AIRINDEX_SCHEMES_CHANNEL_VIEW_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "broadcast/arena.h"
#include "broadcast/channel.h"
#include "schemes/access_path.h"
#include "schemes/entry_search.h"

namespace airindex {

/// A resolved index-entry lookup: `found` plus the entry's target phase.
/// The single-channel walks never follow cross-channel targets, so the
/// phase is all a protocol needs.
struct EntryView {
  bool found = false;
  Bytes target_phase = kInvalidPhase;
};

/// View over the inflated Channel — thin delegation, zero overhead.
class PointerChannelView {
 public:
  /// Proxy over one Bucket.
  class BucketRef {
   public:
    explicit BucketRef(const Bucket* b) : b_(b) {}

    Bytes size() const { return b_->size; }
    BucketKind kind() const { return b_->kind; }
    int level() const { return b_->level; }
    std::int64_t record_id() const { return b_->record_id; }
    Bytes next_index_segment_phase() const {
      return b_->next_index_segment_phase;
    }
    std::int64_t hash_value() const { return b_->hash_value; }
    Bytes shift_phase() const { return b_->shift_phase; }
    std::string_view range_lo() const { return b_->range_lo; }
    std::string_view range_hi() const { return b_->range_hi; }
    std::string_view last_broadcast_key() const {
      return b_->last_broadcast_key;
    }

    /// Local index: the entry covering `key`, or not-found.
    EntryView FindLocal(std::string_view key) const {
      const PointerEntry* entry = FindCoveringEntry(b_->local, key);
      if (entry == nullptr) return {};
      return {true, entry->target_phase};
    }

    /// Control index (distributed indexing): the nearest ancestor whose
    /// range still covers `key` — first entry, in nearest-first order,
    /// with key <= key_hi.
    EntryView FindControlUp(std::string_view key) const {
      for (const PointerEntry& entry : b_->control) {
        if (key <= entry.key_hi) return {true, entry.target_phase};
      }
      return {};
    }

    const std::uint64_t* signature_words() const {
      return b_->signature.data();
    }
    int signature_word_count() const {
      return static_cast<int>(b_->signature.size());
    }

   private:
    const Bucket* b_;
  };

  explicit PointerChannelView(const Channel& channel) : channel_(&channel) {}

  Bytes cycle_bytes() const { return channel_->cycle_bytes(); }
  std::size_t num_buckets() const { return channel_->num_buckets(); }
  BucketRef bucket(std::size_t i) const {
    return BucketRef(&channel_->bucket(i));
  }
  Bytes start_phase(std::size_t i) const { return channel_->start_phase(i); }
  std::size_t BucketAtPhase(Bytes phase) const {
    return channel_->BucketAtPhase(phase);
  }
  Bytes NextBoundaryTime(Bytes now) const {
    return channel_->NextBoundaryTime(now);
  }
  Bytes NextArrivalOfPhase(Bytes phase, Bytes now) const {
    return channel_->NextArrivalOfPhase(phase, now);
  }

 private:
  const Channel* channel_;
};

/// View over a flattened single-channel program. Holds raw base pointers
/// into the arena buffer (stable across moves — the buffer is heap
/// storage kept alive by the scheme's shared_ptr owner) and resolves
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

  ArenaChannelView() = default;

  /// Binds the view to channel 0 of `arena`. Returns false (leaving the
  /// view unbound) unless the arena is a single-channel program whose
  /// bucket pool matches `channel` in count and cycle length — the
  /// callers' signal to stay on the pointer path.
  bool Bind(const ProgramArena& arena, const Channel& channel) {
    if (arena.num_channels() != 1) return false;
    const ArenaChannelDesc& desc = arena.channel_desc(0);
    if (desc.first_bucket != 0 ||
        desc.bucket_count != channel.num_buckets() ||
        arena.num_buckets() != desc.bucket_count) {
      return false;
    }
    const ArenaHeader& header = arena.header();
    const std::uint8_t* base = arena.bytes().data();
    buckets_ = reinterpret_cast<const ArenaBucket*>(base +
                                                    header.buckets_offset);
    entries_ = reinterpret_cast<const ArenaPointerEntry*>(
        base + header.entries_offset);
    words_ =
        reinterpret_cast<const std::uint64_t*>(base + header.words_offset);
    strings_ = reinterpret_cast<const char*>(base + header.strings_offset);
    num_buckets_ = desc.bucket_count;
    starts_.clear();
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
    if (cycle_bytes_ != channel.cycle_bytes()) return false;
    return true;
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

/// Per-scheme plumbing for the arena-native path: owns the attached
/// arena (keeping the buffer alive for the view's raw pointers) and
/// hands walks a bound ArenaChannelView — or nullptr when no arena is
/// attached, the arena does not mirror the channel, or the process-wide
/// access path is kPointer.
class ArenaWalkSupport {
 public:
  void Attach(std::shared_ptr<const ProgramArena> arena,
              const Channel& channel) {
    bound_ = false;
    arena_ = std::move(arena);
    if (arena_ != nullptr) bound_ = view_.Bind(*arena_, channel);
    if (!bound_) arena_.reset();
  }

  const ArenaChannelView* view_or_null() const {
    return bound_ && UseArenaAccessPath() ? &view_ : nullptr;
  }

  /// True when an arena is attached and mirrors the channel (independent
  /// of the process-wide path selection).
  bool bound() const { return bound_; }

 private:
  std::shared_ptr<const ProgramArena> arena_;
  ArenaChannelView view_;
  bool bound_ = false;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_CHANNEL_VIEW_H_

#ifndef AIRINDEX_SCHEMES_ACCESS_H_
#define AIRINDEX_SCHEMES_ACCESS_H_

#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "broadcast/channel.h"

namespace airindex {

/// Outcome of one client access-protocol run.
///
/// Both times are in bytes (== simulated time units). Following the
/// paper's formulas, the initial wait — the partial bucket between tune-in
/// and the first complete bucket — is charged to BOTH access time and
/// tuning time (the client is listening while it waits for a boundary).
struct AccessResult {
  /// True when the requested record was downloaded.
  bool found = false;
  /// At: elapsed bytes from tune-in to download completion (or to the
  /// point where the protocol concluded the record is not on air).
  Bytes access_time = 0;
  /// Tt: bytes actually listened to.
  Bytes tuning_time = 0;
  /// Number of buckets fully read.
  int probes = 0;
  /// Signature schemes: data buckets downloaded due to signature
  /// collisions ("false drops").
  int false_drops = 0;
  /// Non-data buckets fully read while *locating* the record: index
  /// buckets on tree walks, hash/control buckets, signature buckets
  /// sifted. Subset of `probes`.
  int index_probes = 0;
  /// Hashing: extra buckets walked along a collision (overflow) chain
  /// past its first bucket. Subset of `probes`.
  int overflow_hops = 0;
  /// Unreliable channel: attempts abandoned after a corrupted bucket
  /// read (core/error_model.h). 0 on a lossless channel.
  int retries = 0;
  /// Protocol anomalies (stale pointer dereferences, loop-guard trips).
  /// Always 0 for a well-formed channel; tests assert this.
  int anomalies = 0;
  /// True when a deadline policy truncated the request (the client gave
  /// up; found is false regardless of whether the record was on air).
  bool abandoned = false;

  // --- multichannel fields (all stay 0 on a single channel) -----------
  // Narrow types on purpose: this struct is captured by value in the
  // simulator's inline (non-allocating) event closures, whose capacity
  // the des layer static_asserts.
  /// Channel hops: times the client retuned to a different channel.
  std::int16_t channel_hops = 0;
  /// Channel the client first listened on / ended the walk on. Both 0 on
  /// a single channel.
  std::int16_t start_channel = 0;
  std::int16_t final_channel = 0;
  /// Broadcast bytes lost to channel switches (hops * switch cost).
  /// Charged to access_time but never to tuning_time.
  Bytes switch_bytes = 0;
  /// Portion of tuning_time spent listening on final_channel; the rest
  /// was spent on start_channel. Meaningful only when they differ.
  Bytes final_channel_tuning = 0;
};

/// A fully built broadcast program: the channel for one cycle plus the
/// scheme's client access protocol.
///
/// Access() is a pure function of (key, tune-in time): it performs the
/// paper's access protocol for the scheme against the periodic channel
/// and reports the two metrics. Purity keeps protocols unit-testable and
/// lets the discrete-event testbed treat a request as two events
/// (arrival, completion) instead of thousands of per-bucket events.
///
/// Every scheme runs Access() as one walk over its flattened program
/// (schemes/channel_view.h), bound when the scheme is built or restored.
/// channel() is the same cycle as a Channel: the build-time form that
/// geometry, filtering, description and the error model read.
class BroadcastScheme {
 public:
  virtual ~BroadcastScheme() = default;

  /// The broadcast cycle.
  virtual const Channel& channel() const = 0;

  /// Runs the access protocol for `key`, tuning in at absolute time
  /// `tune_in`.
  virtual AccessResult Access(std::string_view key, Bytes tune_in) const = 0;

  /// Human-readable scheme name ("distributed indexing", ...).
  virtual const char* name() const = 0;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_ACCESS_H_

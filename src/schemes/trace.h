#ifndef AIRINDEX_SCHEMES_TRACE_H_
#define AIRINDEX_SCHEMES_TRACE_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "broadcast/channel.h"

namespace airindex {

/// What the client did during one step of an access-protocol walk.
enum class ProbeAction {
  /// Listened from tune-in to the first complete bucket boundary.
  kInitialWait,
  /// Read a bucket in full (radio on).
  kRead,
  /// Dozed (radio off) until a target phase arrived.
  kDoze,
  /// Read the requested record's data bucket (the final download).
  kDownload,
  /// Applied the "K below the last broadcast key" rule: dozed to the
  /// next broadcast cycle.
  kRestart,
  /// Followed the control index up to an ancestor's next occurrence.
  kClimb,
  /// Concluded (found, or proved not-on-air).
  kConclude,
};

/// Printable name of a probe action.
const char* ProbeActionToString(ProbeAction action);

/// ProbeEvent::bucket of a step that involves no bucket.
inline constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);

/// One step of a traced protocol walk.
struct ProbeEvent {
  /// Absolute simulated time at which the step began.
  Bytes at = 0;
  /// Bytes the step spanned (listening for kRead/kDownload/kInitialWait,
  /// silence for kDoze/kRestart/kClimb).
  Bytes duration = 0;
  ProbeAction action = ProbeAction::kRead;
  /// Channel bucket index the step involved (kRead/kDownload), or
  /// kNoBucket when not applicable.
  std::size_t bucket = kNoBucket;
  /// Free-form annotation ("descend to level 2", "key passed", ...).
  std::string note;
};

/// A full annotated walk, in order.
using AccessTrace = std::vector<ProbeEvent>;

/// Step sinks for a protocol walk templated on its Sink: the walk reports
/// every step, and the sink decides what a step costs. NullSink's empty
/// inline members compile away, so the untraced walk pays nothing.
struct NullSink {
  void Step(Bytes, Bytes, ProbeAction, std::size_t, const char*) {}
  void IndexProbe(Bytes, Bytes, std::size_t, std::string_view,
                  std::string_view) {}
};

/// Records each step as a ProbeEvent; the only place notes are built.
class TraceSink {
 public:
  explicit TraceSink(AccessTrace* trace) : trace_(trace) {}

  void Step(Bytes at, Bytes duration, ProbeAction action, std::size_t bucket,
            const char* note) {
    trace_->push_back(ProbeEvent{at, duration, action, bucket, note});
  }

  /// A read of an index bucket covering keys [lo..hi].
  void IndexProbe(Bytes at, Bytes duration, std::size_t bucket,
                  std::string_view lo, std::string_view hi) {
    std::string note = "index probe, range [";
    note.append(lo).append("..").append(hi).append("]");
    trace_->push_back(ProbeEvent{at, duration, ProbeAction::kRead, bucket,
                                 std::move(note)});
  }

 private:
  AccessTrace* trace_;
};

/// Pretty-prints a trace with bucket summaries from the channel.
void PrintTrace(const AccessTrace& trace, const Channel& channel,
                std::ostream& os);

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_TRACE_H_

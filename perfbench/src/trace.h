// In-memory span recorder of the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public functions: name, layer, start, end, parent span and replication
// id. Spans stay in memory and are written once, at exit, as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).
//
// Three kinds of descendant time are subtracted from a span to get its
// self time:
//  - descendant spans inside its interval (on any thread). Their
//    intervals are clipped to the span and merged, so overlapping
//    children — parallel replications, say — count once;
//  - replay children, which re-run out of line a part of the work the
//    parent did inside a call the benchmark cannot open up (a walk replay
//    of the requests RunReplication served). Their whole duration is
//    subtracted from the parent, their own self time counts for their
//    layer, and further ancestors see them as ordinary descendants;
//  - components: time measured in many small pieces inside the parent
//    (each scheme walk of a replay loop), recorded as one sum.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr int kNoSpan = -1;
inline constexpr std::int64_t kNoReplication = -1;

struct Span {
  std::string name;
  /// Module under src/ the call enters ("schemes", "des", ...), or
  /// "bench" for the benchmark's own structure.
  std::string layer;
  /// Seconds since the tracer was created.
  double start = 0.0;
  double end = 0.0;
  int parent = kNoSpan;
  std::int64_t replication = kNoReplication;
  bool replay = false;
  /// Small per-thread index, for the trace viewer's rows.
  int thread = 0;
};

struct Component {
  std::string name;
  std::string layer;
  int parent = kNoSpan;
  std::int64_t replication = kNoReplication;
  double seconds = 0.0;
  std::int64_t calls = 0;
};

/// Thread-safe span store. Span ids are indices into spans().
class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since the tracer was created.
  double Now() const;

  /// Opens a span starting now; End() closes it and returns its duration
  /// in seconds.
  int Begin(std::string layer, std::string name, int parent,
            std::int64_t replication = kNoReplication, bool replay = false);
  double End(int id);

  /// Records a finished span or component directly (tests, and sums
  /// gathered outside the tracer).
  int Add(Span span);
  void AddComponent(Component component);

  std::vector<Span> spans() const;
  std::vector<Component> components() const;

  /// Writes every span as a Chrome trace-event "X" event. Components are
  /// sums, not intervals, so they go in the file's "components" member.
  airindex::Status WriteChromeJson(const std::string& path) const;

 private:
  int ThreadIndex();

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Component> components_;
  std::map<std::uint64_t, int> thread_ids_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string layer, std::string name, int parent,
             std::int64_t replication = kNoReplication, bool replay = false)
      : tracer_(tracer),
        id_(tracer->Begin(std::move(layer), std::move(name), parent,
                          replication, replay)) {}
  ~ScopedSpan() { tracer_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// merged part of its interval covered by descendants (its own replay
/// children excepted), minus the durations of its replay children and the
/// seconds of its components, clamped at 0.
std::vector<double> SelfTimes(const std::vector<Span>& spans,
                              const std::vector<Component>& components);

/// Self seconds per layer: span self times plus component seconds,
/// summed by layer.
std::map<std::string, double> SelfTimeByLayer(
    const std::vector<Span>& spans, const std::vector<Component>& components);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

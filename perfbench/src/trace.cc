#include "trace.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "core/json_report.h"

namespace perfbench {

using airindex::JsonValue;

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int Tracer::ThreadIndex() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] =
      thread_ids_.emplace(key, static_cast<int>(thread_ids_.size()));
  (void)inserted;
  return it->second;
}

int Tracer::Begin(std::string layer, std::string name, int parent,
                  std::int64_t replication, bool replay) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = parent;
  span.replication = replication;
  span.replay = replay;
  span.start = Now();
  span.end = span.start;
  std::lock_guard<std::mutex> lock(mu_);
  span.thread = ThreadIndex();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::End(int id) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = now;
  return span.end - span.start;
}

int Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::AddComponent(Component component) {
  std::lock_guard<std::mutex> lock(mu_);
  components_.push_back(std::move(component));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Component> Tracer::components() const {
  std::lock_guard<std::mutex> lock(mu_);
  return components_;
}

airindex::Status Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  JsonValue events = JsonValue::MakeArray();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    JsonValue args = JsonValue::MakeObject();
    args.Set("id", JsonValue(static_cast<std::int64_t>(i)));
    args.Set("parent", JsonValue(span.parent));
    args.Set("replication", JsonValue(span.replication));
    args.Set("replay", JsonValue(span.replay));
    JsonValue event = JsonValue::MakeObject();
    event.Set("name", JsonValue(span.name));
    event.Set("cat", JsonValue(span.layer));
    event.Set("ph", JsonValue("X"));
    event.Set("ts", JsonValue(span.start * 1e6));
    event.Set("dur", JsonValue((span.end - span.start) * 1e6));
    event.Set("pid", JsonValue(1));
    event.Set("tid", JsonValue(span.thread));
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  JsonValue components = JsonValue::MakeArray();
  for (const Component& component : this->components()) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("name", JsonValue(component.name));
    entry.Set("cat", JsonValue(component.layer));
    entry.Set("parent", JsonValue(component.parent));
    entry.Set("replication", JsonValue(component.replication));
    entry.Set("seconds", JsonValue(component.seconds));
    entry.Set("calls", JsonValue(component.calls));
    components.Append(std::move(entry));
  }
  JsonValue root = JsonValue::MakeObject();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", JsonValue("ms"));
  root.Set("components", std::move(components));
  return airindex::WriteJsonFile(path, root);
}

std::vector<double> SelfTimes(const std::vector<Span>& spans,
                              const std::vector<Component>& components) {
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::vector<std::pair<double, double>>> nested(spans.size());
  std::vector<double> subtracted(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent == kNoSpan) continue;
    // A replay counts against its parent by duration; every other
    // ancestor, and the parent of a nested span, sees its interval.
    int ancestor = span.parent;
    if (span.replay) {
      subtracted[static_cast<std::size_t>(ancestor)] += span.end - span.start;
      ancestor = spans[static_cast<std::size_t>(ancestor)].parent;
    }
    for (; ancestor != kNoSpan;
         ancestor = spans[static_cast<std::size_t>(ancestor)].parent) {
      const auto a = static_cast<std::size_t>(ancestor);
      const double lo = std::max(span.start, spans[a].start);
      const double hi = std::min(span.end, spans[a].end);
      if (hi > lo) nested[a].emplace_back(lo, hi);
    }
  }
  for (const Component& component : components) {
    if (component.parent == kNoSpan) continue;
    subtracted[static_cast<std::size_t>(component.parent)] +=
        component.seconds;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& intervals = nested[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(
        0.0, spans[i].end - spans[i].start - covered - subtracted[i]);
  }
  return self;
}

std::map<std::string, double> SelfTimeByLayer(
    const std::vector<Span>& spans, const std::vector<Component>& components) {
  const std::vector<double> self = SelfTimes(spans, components);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer] += self[i];
  }
  for (const Component& component : components) {
    by_layer[component.layer] += component.seconds;
  }
  return by_layer;
}

}  // namespace perfbench

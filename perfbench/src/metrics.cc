#include "metrics.h"

#include <utility>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"cpu_s", "s"},
      {"requests_per_cpu_s", "req/s"},
      {"peak_rss_mb", "MiB"},
      {"access_bytes", "bytes"},
      {"tuning_bytes", "bytes"},
      {"model_agreement", "ratio"},
      {"ok_ratio", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out;
    const auto add = [&](std::string name, std::string unit) {
      out.push_back(MetricSpec{std::move(name), std::move(unit)});
    };
    add("data.generate_s_p50", "s");
    add("data.generate_n", "count");
    add("broadcast.build_s_p50", "s");
    add("broadcast.build_n", "count");
    for (const std::string& build : BuildLabels()) {
      add("broadcast.build_s." + build, "s");
    }
    add("broadcast.flatten_s_p50", "s");
    add("broadcast.restore_s_p50", "s");
    add("broadcast.arena_bytes", "bytes");
    for (const std::string& walk : WalkLabels()) {
      add("schemes." + walk + ".access_ns_p50", "ns");
      add("schemes." + walk + ".access_ns_ptail", "ns");
      add("schemes." + walk + ".access_n", "count");
      add("schemes." + walk + ".probes_per_access", "count");
      add("schemes." + walk + ".buckets_per_access", "count");
    }
    add("des.event_ns", "ns");
    add("des.events", "count");
    add("des.peak_pending", "count");
    add("core.replication_ms_p50", "ms");
    add("core.replication_ms_ptail", "ms");
    add("core.replication_n", "count");
    add("core.gen_ns_per_request", "ns");
    add("core.self_ns_per_request", "ns");
    add("core.busy_s", "s");
    add("core.idle_s", "s");
    add("core.replications_run", "count");
    add("core.useful_ratio", "ratio");
    add("client.hit_ratio", "ratio");
    add("client.fleet_shard_ms_p50", "ms");
    add("client.fleet_shard_ms_ptail", "ms");
    add("client.fleet_shard_n", "count");
    add("client.fleet_clients_per_s", "1/s");
    add("client.fleet_wakeups", "count");
    add("dynamic.epoch_ms_p50", "ms");
    add("dynamic.epoch_ms_ptail", "ms");
    add("dynamic.epoch_n", "count");
    add("dynamic.compact_ms_p50", "ms");
    add("dynamic.compact_n", "count");
    add("dynamic.mutations", "count");
    add("dynamic.patched_cycles", "count");
    add("dynamic.rebuilt_cycles", "count");
    add("dynamic.delta_read_ratio", "ratio");
    add("dynamic.stale_read_ratio", "ratio");
    add("analytical.eval_s", "s");
    for (const std::string& layer : LayerLabels()) add("self_s." + layer, "s");
    add("trace.wall_s", "s");
    add("trace.overhead_s", "s");
    return out;
  }();
  return specs;
}

const std::vector<std::string>& WalkLabels() {
  static const std::vector<std::string> walks = {
      "flat",      "one_m",      "distributed",    "hashing",
      "signature", "one_m_sqrt", "dynamic_overlay"};
  return walks;
}

const std::vector<std::string>& BuildLabels() {
  static const std::vector<std::string> builds = {
      "flat", "one_m", "distributed", "hashing", "signature", "one_m_sqrt"};
  return builds;
}

const std::vector<std::string>& LayerLabels() {
  static const std::vector<std::string> layers = {
      "bench", "data",   "broadcast", "schemes",   "des",
      "core",  "client", "dynamic",   "analytical"};
  return layers;
}

}  // namespace perfbench

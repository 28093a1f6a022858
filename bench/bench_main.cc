#include "bench/bench_main.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace airindex {

namespace {

int ParseIntArg(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    std::exit(2);
  }
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(argv[++*i], &end, 10);
  // A value past INT_MAX would wrap in the int it is stored in.
  if (end == argv[*i] || *end != '\0' || errno == ERANGE || value < 0 ||
      value > INT_MAX) {
    std::fprintf(stderr, "invalid value for %s: %s\n", flag, argv[*i]);
    std::exit(2);
  }
  return static_cast<int>(value);
}

double ParseDoubleArg(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    std::exit(2);
  }
  char* end = nullptr;
  const double value = std::strtod(argv[++*i], &end);
  // strtod also reads "inf" and "nan", which no flag accepts.
  if (end == argv[*i] || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    std::fprintf(stderr, "invalid value for %s: %s\n", flag, argv[*i]);
    std::exit(2);
  }
  return value;
}

std::string FormatFlagDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      options.csv = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      options.jobs = ParseIntArg(argc, argv, &i, "--jobs");
      if (options.jobs > kMaxBenchJobs) {
        std::fprintf(stderr, "--jobs must be <= %d\n", kMaxBenchJobs);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--records") == 0) {
      options.records = ParseIntArg(argc, argv, &i, "--records");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path\n");
        std::exit(2);
      }
      options.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--channels") == 0) {
      options.multichannel.num_channels =
          ParseIntArg(argc, argv, &i, "--channels");
      if (options.multichannel.num_channels < 1) {
        std::fprintf(stderr, "--channels must be >= 1\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--switch-cost") == 0) {
      options.multichannel.switch_cost_bytes =
          ParseIntArg(argc, argv, &i, "--switch-cost");
    } else if (std::strcmp(argv[i], "--zipf") == 0) {
      options.zipf_theta = ParseDoubleArg(argc, argv, &i, "--zipf");
    } else if (std::strcmp(argv[i], "--cache-size") == 0) {
      options.client.cache_capacity =
          ParseIntArg(argc, argv, &i, "--cache-size");
    } else if (std::strcmp(argv[i], "--cache-policy") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--cache-policy requires a policy name\n");
        std::exit(2);
      }
      if (!ParseCachePolicy(argv[++i], &options.client.cache_policy)) {
        std::fprintf(stderr,
                     "unknown cache policy '%s' (want lru, lfu or pix)\n",
                     argv[i]);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--session-length") == 0) {
      options.client.session_length =
          ParseIntArg(argc, argv, &i, "--session-length");
      if (options.client.session_length < 1) {
        std::fprintf(stderr, "--session-length must be >= 1\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--repeat-prob") == 0) {
      options.client.repeat_probability =
          ParseDoubleArg(argc, argv, &i, "--repeat-prob");
      if (options.client.repeat_probability > 1.0) {
        std::fprintf(stderr, "--repeat-prob must be in [0,1]\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--update-rate") == 0) {
      options.client.update_rate =
          ParseDoubleArg(argc, argv, &i, "--update-rate");
    } else if (std::strcmp(argv[i], "--update-zipf") == 0) {
      options.client.update_zipf =
          ParseDoubleArg(argc, argv, &i, "--update-zipf");
    } else if (std::strcmp(argv[i], "--compact-every") == 0) {
      options.client.compact_every =
          ParseIntArg(argc, argv, &i, "--compact-every");
    } else if (std::strcmp(argv[i], "--cache-warmup") == 0) {
      options.client.warmup_queries =
          ParseIntArg(argc, argv, &i, "--cache-warmup");
    } else if (std::strcmp(argv[i], "--fleet-size") == 0) {
      options.fleet_size = ParseIntArg(argc, argv, &i, "--fleet-size");
    } else if (std::strcmp(argv[i], "--program-cache") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--program-cache requires a directory\n");
        std::exit(2);
      }
      options.program_cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--shard requires a value (I/N)\n");
        std::exit(2);
      }
      Result<ShardSpec> spec = ParseShardSpec(argv[++i]);
      if (!spec.ok()) {
        std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
        std::exit(2);
      }
      options.shard = spec.value();
    } else if (std::strcmp(argv[i], "--scheduler") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--scheduler requires a name\n");
        std::exit(2);
      }
      if (!ParseSchedulerKind(argv[++i], &options.schedule.scheduler)) {
        std::fprintf(stderr,
                     "unknown scheduler '%s' (want flat, sqrt or online)\n",
                     argv[i]);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--disks") == 0) {
      options.schedule.num_disks = ParseIntArg(argc, argv, &i, "--disks");
      if (options.schedule.num_disks < 1) {
        std::fprintf(stderr, "--disks must be >= 1\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--retier-requests") == 0) {
      options.schedule.retier_requests =
          ParseIntArg(argc, argv, &i, "--retier-requests");
      if (options.schedule.retier_requests < 1) {
        std::fprintf(stderr, "--retier-requests must be >= 1\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--allocation") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--allocation requires a strategy name\n");
        std::exit(2);
      }
      if (!ParseChannelAllocation(argv[++i],
                                  &options.multichannel.allocation)) {
        std::fprintf(stderr,
                     "unknown allocation '%s' (want index-on-one, "
                     "data-partitioned or replicated-index)\n",
                     argv[i]);
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

void ApplyMultiChannelOptions(const BenchOptions& options,
                              TestbedConfig* config) {
  config->multichannel = options.multichannel;
  // Also applied here (idempotently with ApplyWorkloadOptions) so every
  // bench that applies either flag family honours --program-cache.
  config->program_cache_dir = options.program_cache_dir;
}

void ApplyWorkloadOptions(const BenchOptions& options,
                          TestbedConfig* config) {
  if (options.zipf_theta >= 0.0) config->zipf_theta = options.zipf_theta;
  config->client = options.client;
  config->params.schedule = options.schedule;
  config->program_cache_dir = options.program_cache_dir;
}

void PrintProgramCacheSummary(const ProgramCache* cache,
                              const ShardSpec& shard) {
  if (cache == nullptr) return;
  const MetricsRegistry metrics = cache->MetricsSnapshot();
  if (shard.active()) {
    std::fprintf(stderr, "[shard %d/%d] ", shard.index + 1, shard.count);
  }
  std::fprintf(stderr,
               "program cache (%s): builds=%lld build_seconds=%.3f "
               "snapshot_hits=%lld snapshot_misses=%lld memory_hits=%lld "
               "writes=%lld\n",
               cache->dir().c_str(),
               static_cast<long long>(metrics.Get("program.builds")),
               static_cast<double>(metrics.Get("program.build_micros")) * 1e-6,
               static_cast<long long>(metrics.Get("program.snapshot_hits")),
               static_cast<long long>(metrics.Get("program.snapshot_misses")),
               static_cast<long long>(metrics.Get("program.memory_hits")),
               static_cast<long long>(metrics.Get("program.snapshot_writes")));
}

BenchReporter::BenchReporter(std::string bench_name,
                             const BenchOptions& options)
    : json_path_(options.json_path) {
  report_.bench = std::move(bench_name);
  AddConfig("quick", options.quick ? "true" : "false");
  if (options.records > 0) {
    AddConfig("records_override", std::to_string(options.records));
  }
  // Only a real multichannel run records these keys: a single channel
  // must reproduce pre-multichannel reports byte-identically.
  if (options.multichannel.num_channels > 1) {
    AddConfig("channels", std::to_string(options.multichannel.num_channels));
    AddConfig("switch_cost_bytes",
              std::to_string(options.multichannel.switch_cost_bytes));
    AddConfig("allocation",
              ChannelAllocationToString(options.multichannel.allocation));
  }
  // The workload keys follow the same rule: only a flag that left its
  // "not given" default behind is recorded.
  if (options.zipf_theta >= 0.0) {
    AddConfig("zipf_theta", FormatFlagDouble(options.zipf_theta));
  }
  if (options.client.cache_capacity > 0) {
    AddConfig("cache_policy",
              CachePolicyToString(options.client.cache_policy));
    AddConfig("cache_size", std::to_string(options.client.cache_capacity));
    AddConfig("session_length",
              std::to_string(options.client.session_length));
    AddConfig("repeat_probability",
              FormatFlagDouble(options.client.repeat_probability));
    AddConfig("update_rate", FormatFlagDouble(options.client.update_rate));
    AddConfig("cache_warmup",
              std::to_string(options.client.warmup_queries));
  }
  // Likewise only an active scheduler is recorded.
  if (options.schedule.active()) {
    AddConfig("scheduler", SchedulerKindToString(options.schedule.scheduler));
    AddConfig("disks", std::to_string(options.schedule.num_disks));
    if (options.schedule.scheduler == SchedulerKind::kOnline) {
      AddConfig("retier_requests",
                std::to_string(options.schedule.retier_requests));
    }
  }
  // Self-describing reports: the fully-resolved value of every shared
  // flag that can shape results, recorded unconditionally so sharded
  // partials and committed baselines state the run they describe. The
  // conditional keys above are kept for readers that learned them.
  // Run-variant knobs are deliberately absent: --json, --shard,
  // --program-cache and --jobs never change results, and the
  // cold-vs-warm and sharded-merge CI gates byte-compare reports across
  // them (MergeShardedReports also requires config equality across
  // shards).
  AddConfig("resolved.quick", options.quick ? "true" : "false");
  AddConfig("resolved.records",
            options.records > 0 ? std::to_string(options.records)
                                : "bench-grid");
  AddConfig("resolved.channels",
            std::to_string(options.multichannel.num_channels));
  AddConfig("resolved.switch_cost_bytes",
            std::to_string(options.multichannel.switch_cost_bytes));
  AddConfig("resolved.allocation",
            ChannelAllocationToString(options.multichannel.allocation));
  AddConfig("resolved.zipf_theta",
            options.zipf_theta >= 0.0 ? FormatFlagDouble(options.zipf_theta)
                                      : "bench-default");
  AddConfig("resolved.cache_size",
            std::to_string(options.client.cache_capacity));
  AddConfig("resolved.cache_policy",
            CachePolicyToString(options.client.cache_policy));
  AddConfig("resolved.session_length",
            std::to_string(options.client.session_length));
  AddConfig("resolved.repeat_probability",
            FormatFlagDouble(options.client.repeat_probability));
  AddConfig("resolved.update_rate",
            FormatFlagDouble(options.client.update_rate));
  AddConfig("resolved.update_zipf",
            FormatFlagDouble(options.client.update_zipf));
  AddConfig("resolved.compact_every",
            std::to_string(options.client.compact_every));
  AddConfig("resolved.cache_warmup",
            std::to_string(options.client.warmup_queries));
  AddConfig("resolved.fleet_size", std::to_string(options.fleet_size));
  AddConfig("resolved.scheduler",
            SchedulerKindToString(options.schedule.scheduler));
  AddConfig("resolved.disks", std::to_string(options.schedule.num_disks));
  AddConfig("resolved.retier_requests",
            std::to_string(options.schedule.retier_requests));
}

void BenchReporter::AddConfig(const std::string& key,
                              const std::string& value) {
  for (auto& [existing_key, existing_value] : report_.config) {
    if (existing_key == key) {
      existing_value = value;
      return;
    }
  }
  report_.config.emplace_back(key, value);
}

BenchPoint& BenchReporter::AddSimulationPoint(
    std::vector<std::pair<std::string, std::string>> labels,
    const SimulationResult& sim) {
  BenchPoint point;
  point.labels = std::move(labels);
  point.metrics.emplace_back(
      "access_bytes",
      BenchMetricValue{sim.access.mean(), sim.access_check.half_width, false});
  point.metrics.emplace_back(
      "tuning_bytes",
      BenchMetricValue{sim.tuning.mean(), sim.tuning_check.half_width, false});
  point.replications = sim.rounds;
  point.requests = sim.requests;
  point.converged = sim.converged;
  report_.counters.Merge(sim.metrics);
  report_.points.push_back(std::move(point));
  return report_.points.back();
}

void BenchReporter::AddPoint(BenchPoint point) {
  report_.points.push_back(std::move(point));
}

void BenchReporter::MergeCounters(const MetricsRegistry& metrics) {
  report_.counters.Merge(metrics);
}

void BenchReporter::SetShard(const ShardSpec& spec) {
  if (!spec.active()) return;
  sharded_ = true;
  shard_.spec = spec;
}

void BenchReporter::AttachShardCell(ShardCell cell) {
  if (!sharded_) return;
  shard_.cells.push_back(std::move(cell));
}

void BenchReporter::AddDerivedMetric(const DerivedMetricSpec& spec) {
  if (!sharded_ || shard_.cells.empty()) return;
  shard_.cells.back().derived.push_back(spec);
}

Status BenchReporter::Finish(const RunTiming& timing) {
  if (json_path_.empty()) return Status::Ok();
  report_.timing = timing;
  JsonValue root = BenchReportToJson(report_);
  // The shard section rides after the standard blocks; unsharded
  // readers (BenchReportFromJson, bench_compare) ignore unknown root
  // keys, so a partial is still a well-formed report.
  if (sharded_) root.Set("shard", ShardSectionToJson(shard_));
  return WriteJsonFile(json_path_, root);
}

}  // namespace airindex

#include "cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>

#include "workloads.h"

namespace perfbench {

namespace {

using airindex::Status;

/// Whole-string unsigned decimal; no sign, no spaces, no trailing junk.
bool ParseUint(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.front() == '+' || text.front() == '-') {
    return false;
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

}  // namespace

std::string Usage() {
  std::string names;
  for (const std::string& name : WorkloadNames()) {
    if (!names.empty()) names += "|";
    names += name;
  }
  return "usage: perfbench --workload " + names +
         " --seed N [--seconds S] [--trace 0|1] [--jobs N] "
         "[--trace-file PATH] [--commit ID]";
}

airindex::Result<Options> ParseOptions(const std::vector<std::string>& args,
                                       int max_jobs) {
  static const std::set<std::string> kFlags = {
      "--workload", "--seed",       "--seconds", "--trace",
      "--jobs",     "--trace-file", "--commit"};
  Options options;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (kFlags.count(flag) == 0) {
      return Status::InvalidArgument("unknown argument '" + flag + "'");
    }
    if (!seen.insert(flag).second) {
      return Status::InvalidArgument("repeated flag " + flag);
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument(flag + " needs a value");
    }
    const std::string& value = args[++i];
    if (flag == "--workload") {
      const auto& names = WorkloadNames();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        return Status::InvalidArgument("unknown workload '" + value + "'");
      }
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &options.seed)) {
        return Status::InvalidArgument(
            "--seed must be an unsigned decimal integer, got '" + value +
            "'");
      }
    } else if (flag == "--seconds") {
      if (!ParseDouble(value, &options.seconds) || options.seconds <= 0.0 ||
          options.seconds > 600.0) {
        return Status::InvalidArgument(
            "--seconds must be a number in (0, 600], got '" + value + "'");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace must be 0 or 1, got '" +
                                       value + "'");
      }
      options.trace = value == "1";
    } else if (flag == "--jobs") {
      std::uint64_t jobs = 0;
      if (!ParseUint(value, &jobs) || jobs < 1 ||
          jobs > static_cast<std::uint64_t>(max_jobs)) {
        return Status::InvalidArgument("--jobs must be an integer in [1, " +
                                       std::to_string(max_jobs) +
                                       "], got '" + value + "'");
      }
      options.jobs = static_cast<int>(jobs);
    } else if (flag == "--trace-file") {
      if (value.empty()) {
        return Status::InvalidArgument("--trace-file needs a path");
      }
      options.trace_file = value;
    } else {
      if (value.empty()) return Status::InvalidArgument("--commit is empty");
      options.commit = value;
    }
  }
  if (options.workload.empty()) {
    return Status::InvalidArgument("--workload is required");
  }
  if (seen.count("--seed") == 0) {
    return Status::InvalidArgument("--seed is required");
  }
  if (options.jobs == 0) options.jobs = std::min(4, max_jobs);
  return options;
}

}  // namespace perfbench

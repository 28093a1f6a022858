// Command line of the benchmark binary. Parsing is strict: an unknown
// flag, a repeated flag, a missing value or a malformed number is an
// error, never a silent default.
#ifndef PERFBENCH_CLI_H_
#define PERFBENCH_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Measured window of one run, in seconds.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the traced per-layer run.
  bool trace = false;
  /// Engine worker threads; 0 = min(4, nproc).
  int jobs = 0;
  /// Where the traced run writes its Chrome trace; empty = not written.
  std::string trace_file;
  /// Identifies the measured source tree in the run record.
  std::string commit = "unknown";
};

/// Usage text printed with every parse error.
std::string Usage();

/// Parses argv[1..]. `max_jobs` bounds --jobs (the machine's nproc).
airindex::Result<Options> ParseOptions(const std::vector<std::string>& args,
                                       int max_jobs);

}  // namespace perfbench

#endif  // PERFBENCH_CLI_H_

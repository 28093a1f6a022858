// The machine and method recorded next to every result, and the refusal
// to report from a build that measures a different program.
#ifndef PERFBENCH_MACHINE_H_
#define PERFBENCH_MACHINE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace perfbench {

struct RunRecord {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  std::string commit;
  std::string workload;
  std::uint64_t seed = 0;
  int jobs = 0;
  bool trace = false;
};

/// Fills the machine and build fields; the caller adds the method.
RunRecord DescribeMachine();

/// One line, "run: nproc=4 cpu=... workload=... seed=... jobs=4".
std::string FormatRecord(const RunRecord& record);

/// FailedPrecondition for a Debug, unoptimized, sanitizer or coverage
/// build: its timings describe another program.
airindex::Status CheckMeasurableBuild();

/// Process high-water resident set size, in MiB.
double PeakRssMiB();

/// CPU seconds (user + system) of the whole process, every thread that
/// ever ran in it included, and of the calling thread alone. The kernel
/// accounts both net of steal time, the time a shared host runs other
/// guests on this machine's virtual CPUs, which wall time includes.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_MACHINE_H_

#include "machine.h"

#include <sys/resource.h>
#include <time.h>

#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t begin = line.find_first_not_of(' ', colon + 1);
    return begin == std::string::npos ? "" : line.substr(begin);
  }
  return "unknown";
}

}  // namespace

RunRecord DescribeMachine() {
  RunRecord record;
  record.nproc = static_cast<int>(std::thread::hardware_concurrency());
  record.cpu_model = CpuModel();
  record.compiler = PERFBENCH_COMPILER;
  record.build_type = PERFBENCH_BUILD_TYPE;
  record.cxx_flags = PERFBENCH_CXX_FLAGS;
  return record;
}

std::string FormatRecord(const RunRecord& record) {
  return "run: nproc=" + std::to_string(record.nproc) + " cpu=\"" +
         record.cpu_model + "\" compiler=\"" + record.compiler +
         "\" build=" + record.build_type + " flags=\"" + record.cxx_flags +
         "\" commit=" + record.commit + " workload=" + record.workload +
         " seed=" + std::to_string(record.seed) +
         " jobs=" + std::to_string(record.jobs) +
         " trace=" + (record.trace ? "1" : "0");
}

airindex::Status CheckMeasurableBuild() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    return airindex::Status::FailedPrecondition(
        "refusing to report from a '" + build_type +
        "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return airindex::Status::FailedPrecondition(
      "refusing to report from an unoptimized or assert-enabled build");
#endif
#if PERFBENCH_INSTRUMENTED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return airindex::Status::FailedPrecondition(
      "refusing to report from a sanitizer or coverage build");
#endif
  return airindex::Status::Ok();
}

double PeakRssMiB() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec now{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now) != 0) return 0.0;
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

}  // namespace perfbench

#include "report.h"

#include <fstream>
#include <thread>

#include "json.h"

namespace dmlbench {

namespace {

bool AssertsEnabled() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

}  // namespace

std::string ProvenanceJson() {
  return JsonObject()
      .Str("build_type", DMLBENCH_BUILD_TYPE)
      .Str("compiler", DMLBENCH_COMPILER)
      .Bool("asserts", AssertsEnabled())
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("parallel_width", kParallelWidth)
      .str();
}

bool IsReleaseBuild() {
  return std::string(DMLBENCH_BUILD_TYPE) == "Release" && !AssertsEnabled();
}

long PeakRssKb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so it
  // would report the launching process's peak whenever that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

std::string OutputLog::WriteOutput(const std::string& stem,
                                   const RunOutput& output, double seconds,
                                   bool* ok) {
  std::string file = stem + "." + output.extension;
  *ok = WriteFile(dir_ + "/" + file, output.text) && *ok;
  attempted_ += output.attempted;
  failed_ += output.failed;
  return JsonObject()
      .Str("file", file)
      .Num("seconds", seconds)
      .Int("attempted", output.attempted)
      .Int("failed", output.failed)
      .str();
}

bool OutputLog::Add(const std::string& label, const RunOutput& serial,
                    double serial_s, const RunOutput* parallel,
                    double parallel_s) {
  bool ok = true;
  std::string stem = std::to_string(count_++) + "-" + label;
  JsonObject entry;
  entry.Str("label", label);
  entry.Raw("serial", WriteOutput(stem + "-serial", serial, serial_s, &ok));
  entry.Raw("parallel", parallel == nullptr
                            ? "null"
                            : WriteOutput(stem + "-parallel", *parallel,
                                          parallel_s, &ok));
  if (!entries_.empty()) entries_ += ",\n";
  entries_ += entry.str();
  return ok;
}

}  // namespace dmlbench

#ifndef DMLBENCH_DRIVER_REPORT_H_
#define DMLBENCH_DRIVER_REPORT_H_

#include <string>
#include <utility>

#include "workloads.h"

namespace dmlbench {

/// Build provenance as a JSON object: build type, compiler, whether asserts
/// are compiled in, the CPU count and the parallel width.
std::string ProvenanceJson();

/// True for a Release build with asserts compiled out — the only kind of
/// build whose timings the driver reports.
bool IsReleaseBuild();

/// Peak resident set size of this process, KiB.
long PeakRssKb();
/// Writes the outputs of each timed run into `dir` and lists them for the
/// checker: one entry per serial run, paired with its parallel twin when
/// there is one (the two outputs must then be identical).
class OutputLog {
 public:
  explicit OutputLog(std::string dir) : dir_(std::move(dir)) {}

  /// Returns false when a file cannot be written.
  bool Add(const std::string& label, const RunOutput& serial, double serial_s,
           const RunOutput* parallel = nullptr, double parallel_s = 0.0);

  /// The entries as a JSON array.
  std::string Json() const { return "[" + entries_ + "]"; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  std::string WriteOutput(const std::string& stem, const RunOutput& output,
                          double seconds, bool* ok);

  std::string dir_;
  std::string entries_;
  int count_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
};

}  // namespace dmlbench

#endif  // DMLBENCH_DRIVER_REPORT_H_

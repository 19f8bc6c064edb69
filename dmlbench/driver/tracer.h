#ifndef DMLBENCH_DRIVER_TRACER_H_
#define DMLBENCH_DRIVER_TRACER_H_

#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace dmlbench {

/// Spans recorded by the benchmark around its own calls into the library's
/// public functions (nothing inside the library is instrumented). Single
/// threaded: every span opens and closes on the caller's thread, nested by
/// scope. Kept in memory and written out once, as Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string detail;
    int id = 0;
    int parent = -1;  // -1 = a root span
    double start_s = 0.0;
    double end_s = 0.0;

    double seconds() const { return end_s - start_s; }
  };

  /// Closes its span when it leaves scope (or at Close()).
  class Scope {
   public:
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { Close(); }

    /// Ends the span (once) and returns its duration in seconds.
    double Close();

   private:
    Tracer* tracer_;
    int id_;
    bool open_ = true;
  };

  /// Opens a span as a child of the innermost open one.
  [[nodiscard]] Scope Open(std::string name, std::string detail = "");

  /// Durations, in seconds, of every closed span called `name`, in order.
  std::vector<double> Durations(const std::string& name) const;
  /// Their sum.
  double TotalSeconds(const std::string& name) const;

  /// The trace as a Chrome trace-event document ("X" complete events on one
  /// thread, microseconds), openable in Perfetto. Each event's args carry
  /// the span id, its parent's id and name, and its end time.
  /// `other_data` is a JSON object stored under "otherData".
  std::string ChromeJson(const std::string& other_data) const;

 private:
  dmlscale::Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace dmlbench

#endif  // DMLBENCH_DRIVER_TRACER_H_

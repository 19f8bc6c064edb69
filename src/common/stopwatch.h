#ifndef DMLSCALE_COMMON_STOPWATCH_H_
#define DMLSCALE_COMMON_STOPWATCH_H_

#include <chrono>

namespace dmlscale {

/// Wall-clock stopwatch over std::chrono::steady_clock.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  // The one sanctioned clock: monotonic, and never part of a result. In
  // src/ it only times the sweep runner's run diagnostic
  // (SweepReport::wall_seconds, kept out of the CSV and the ranking).
  // dml-lint bans clock types elsewhere in src/ (rule DML001), so timing
  // goes through here.
  using Clock = std::chrono::steady_clock;  // dml-lint: allow(wall-clock)
  Clock::time_point start_;
};

}  // namespace dmlscale

#endif  // DMLSCALE_COMMON_STOPWATCH_H_

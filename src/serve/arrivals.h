#ifndef DMLSCALE_SERVE_ARRIVALS_H_
#define DMLSCALE_SERVE_ARRIVALS_H_

#include <cstdint>

#include "common/random.h"
#include "common/status.h"

namespace dmlscale::serve {

/// Shape of the request-arrival process feeding the serving cluster.
enum class ArrivalKind {
  kPoisson,  // constant-rate Poisson, the M/M/k assumption
  kDiurnal,  // sinusoidal day/night rate, thinned Poisson
  kMmpp,     // 2-state Markov-modulated Poisson: quiet vs burst
};

const char* ToString(ArrivalKind kind);

/// Declarative arrival model. Only the fields of the selected `kind` are
/// read (beyond `rate_qps`, which anchors every kind's MEAN rate, so two
/// specs with equal rate_qps offer identical long-run load regardless of
/// shape). Defaults describe a constant 0-qps Poisson stream, which
/// Validate() rejects — a serving spec must state its load.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;

  /// Long-run mean arrival rate, requests/s (> 0).
  double rate_qps = 0.0;

  /// kDiurnal: sinusoid period (> 0) and peak/trough rate ratio (>= 1).
  /// rate(t) = rate_qps * (1 + a sin(2 pi t / period)) with amplitude
  /// a = (r - 1) / (r + 1), so the mean stays rate_qps.
  double diurnal_period_s = 86400.0;
  double diurnal_peak_to_trough = 1.0;

  /// kMmpp: the burst state multiplies the quiet-state rate by
  /// `burst_rate_multiplier` (> 1); the process spends `burst_fraction`
  /// of time bursting (in (0, 1)), with exponential dwells of mean
  /// `burst_mean_duration_s` (> 0) in the burst state. The quiet rate is
  /// derived so the long-run mean is exactly rate_qps.
  double burst_rate_multiplier = 1.0;
  double burst_fraction = 0.0;
  double burst_mean_duration_s = 0.0;

  [[nodiscard]] Status Validate() const;

  /// Supremum of the instantaneous rate — the thinning envelope, and the
  /// rate a peak-provisioned planner should design for.
  double PeakRate() const;
};

/// One deterministic arrival stream: strictly non-decreasing absolute
/// times, drawn from a single `Pcg32` derived as DeriveSeed(seed, stream)
/// — the FaultModel convention, so stream identity is a pure function of
/// (seed, stream) and never of which engine shard consumes it.
///
/// Non-homogeneous kinds use Lewis–Shedler thinning against PeakRate();
/// the MMPP switches state on an explicit exponential clock (gaps that
/// cross a switch are redrawn at the new rate — valid by memorylessness).
class ArrivalProcess {
 public:
  /// `spec` must have passed Validate().
  ArrivalProcess(const ArrivalSpec& spec, uint64_t seed, uint64_t stream);

  /// Absolute time of the next arrival, seconds. Monotone non-decreasing.
  double NextArrivalSeconds();

  /// The internal clock: time of the last arrival returned (0 initially).
  double now() const { return now_; }

 private:
  double NextGap();
  double ExpGap(double rate);

  ArrivalSpec spec_;
  Pcg32 rng_;
  double now_ = 0.0;
  // kMmpp state.
  bool in_burst_ = false;
  double next_switch_s_ = 0.0;
  double quiet_rate_ = 0.0;
  double burst_rate_ = 0.0;
  double quiet_mean_dwell_s_ = 0.0;
};

}  // namespace dmlscale::serve

#endif  // DMLSCALE_SERVE_ARRIVALS_H_

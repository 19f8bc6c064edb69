#include "serve/arrivals.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace dmlscale::serve {

const char* ToString(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kDiurnal:
      return "diurnal";
    case ArrivalKind::kMmpp:
      return "mmpp";
  }
  return "unknown";
}

Status ArrivalSpec::Validate() const {
  if (!std::isfinite(rate_qps) || rate_qps <= 0.0) {
    return Status::InvalidArgument(
        "arrival rate must be finite and > 0 qps (set `qps`)");
  }
  switch (kind) {
    case ArrivalKind::kPoisson:
      break;
    case ArrivalKind::kDiurnal:
      if (!std::isfinite(diurnal_period_s) || diurnal_period_s <= 0.0) {
        return Status::InvalidArgument(
            "diurnal period must be finite and > 0 s");
      }
      if (!std::isfinite(diurnal_peak_to_trough) ||
          diurnal_peak_to_trough < 1.0) {
        return Status::InvalidArgument(
            "diurnal peak-to-trough ratio must be finite and >= 1");
      }
      break;
    case ArrivalKind::kMmpp:
      if (!std::isfinite(burst_rate_multiplier) ||
          burst_rate_multiplier <= 1.0) {
        return Status::InvalidArgument(
            "MMPP burst rate multiplier must be finite and > 1 (otherwise "
            "use poisson)");
      }
      if (!(burst_fraction > 0.0 && burst_fraction < 1.0)) {
        return Status::InvalidArgument(
            "MMPP burst fraction must be in (0, 1)");
      }
      if (!std::isfinite(burst_mean_duration_s) ||
          burst_mean_duration_s <= 0.0) {
        return Status::InvalidArgument(
            "MMPP burst mean duration must be finite and > 0 s");
      }
      break;
  }
  return Status::OK();
}

double ArrivalSpec::PeakRate() const {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return rate_qps;
    case ArrivalKind::kDiurnal: {
      double amplitude =
          (diurnal_peak_to_trough - 1.0) / (diurnal_peak_to_trough + 1.0);
      return rate_qps * (1.0 + amplitude);
    }
    case ArrivalKind::kMmpp: {
      // Quiet rate scaled so the stationary mean is rate_qps; the burst
      // state runs at multiplier times that.
      double quiet = rate_qps / (1.0 - burst_fraction +
                                 burst_rate_multiplier * burst_fraction);
      return quiet * burst_rate_multiplier;
    }
  }
  return rate_qps;
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec, uint64_t seed,
                               uint64_t stream)
    : spec_(spec), rng_(DeriveSeed(seed, stream), stream) {
  DMLSCALE_CHECK(spec_.Validate().ok());
  if (spec_.kind == ArrivalKind::kMmpp) {
    quiet_rate_ =
        spec_.rate_qps / (1.0 - spec_.burst_fraction +
                          spec_.burst_rate_multiplier * spec_.burst_fraction);
    burst_rate_ = quiet_rate_ * spec_.burst_rate_multiplier;
    // Stationary dwell balance: f = d_b / (d_b + d_q).
    quiet_mean_dwell_s_ = spec_.burst_mean_duration_s *
                          (1.0 - spec_.burst_fraction) / spec_.burst_fraction;
    // Start in the stationary state mix so short runs are unbiased.
    in_burst_ = rng_.NextBernoulli(spec_.burst_fraction);
    next_switch_s_ = ExpGap(
        1.0 / (in_burst_ ? spec_.burst_mean_duration_s : quiet_mean_dwell_s_));
  }
}

double ArrivalProcess::ExpGap(double rate) {
  // 1 - U in (0, 1]: log() never sees 0.
  return -std::log(1.0 - rng_.NextDouble()) / rate;
}

double ArrivalProcess::NextGap() {
  switch (spec_.kind) {
    case ArrivalKind::kPoisson:
      return ExpGap(spec_.rate_qps);
    case ArrivalKind::kDiurnal: {
      // Lewis–Shedler thinning at the peak-rate envelope.
      double peak = spec_.PeakRate();
      double amplitude = (spec_.diurnal_peak_to_trough - 1.0) /
                         (spec_.diurnal_peak_to_trough + 1.0);
      double gap = 0.0;
      for (;;) {
        gap += ExpGap(peak);
        double t = now_ + gap;
        double rate =
            spec_.rate_qps *
            (1.0 + amplitude * std::sin(2.0 * std::numbers::pi * t /
                                        spec_.diurnal_period_s));
        if (rng_.NextDouble() * peak < rate) return gap;
      }
    }
    case ArrivalKind::kMmpp: {
      double gap = 0.0;
      for (;;) {
        double rate = in_burst_ ? burst_rate_ : quiet_rate_;
        double candidate = ExpGap(rate);
        if (gap + candidate < next_switch_s_ - now_) return gap + candidate;
        // The candidate crosses the modulation switch: advance to the
        // switch, toggle state, and redraw — valid because the exponential
        // clock is memoryless.
        gap = next_switch_s_ - now_;
        in_burst_ = !in_burst_;
        next_switch_s_ += ExpGap(1.0 / (in_burst_ ? spec_.burst_mean_duration_s
                                                  : quiet_mean_dwell_s_));
        // Note: `now_` stays the last-arrival time; `gap` carries the
        // partial progress toward the next arrival.
      }
    }
  }
  DMLSCALE_CHECK(false);
  return 0.0;
}

double ArrivalProcess::NextArrivalSeconds() {
  now_ += NextGap();
  return now_;
}

}  // namespace dmlscale::serve

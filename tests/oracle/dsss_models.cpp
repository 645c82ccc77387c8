#include "oracle/dsss_models.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace jrsnd::oracle {

BufferSchedule::BufferSchedule(const dsss::TimingModel& timing, Duration phase)
    : phase_s_(phase.seconds()),
      t_b_(timing.buffer_time().seconds()),
      t_p_(timing.processing_time().seconds()),
      rate_(timing.inputs().chip_rate_bps) {}

BufferSchedule::Window BufferSchedule::window(std::uint64_t index) const {
  // The paper indexes duty cycles from i = 1; window(0) is that first one.
  const double k = static_cast<double>(index + 1);
  Window w;
  w.capture_end = TimePoint(phase_s_ + k * t_p_);
  w.capture_start = TimePoint(w.capture_end.seconds() - t_b_);
  w.processing_start = w.capture_end;
  w.processing_end = TimePoint(w.capture_end.seconds() + t_p_);
  return w;
}

bool BufferSchedule::captures(TimePoint t) const {
  // Capture windows end at phase + k t_p; the one potentially covering t
  // has k = ceil((t - phase) / t_p), and when t_b > t_p earlier windows may
  // still cover t too.
  const double rel = t.seconds() - phase_s_;
  const auto extra = static_cast<std::uint64_t>(std::ceil(t_b_ / t_p_)) + 1;
  const double k_min_f = std::ceil(rel / t_p_);
  const auto k_min = k_min_f < 1.0 ? 1u : static_cast<std::uint64_t>(k_min_f);
  for (std::uint64_t k = k_min; k <= k_min + extra; ++k) {
    const double end = phase_s_ + static_cast<double>(k) * t_p_;
    if (t.seconds() >= end - t_b_ && t.seconds() < end) return true;
  }
  return false;
}

double BufferSchedule::occupancy_chips(TimePoint t) const {
  // Sum contributions of every window whose chips are alive at t: being
  // captured (linear fill at R) or being processed (linear drain over t_p).
  const double rel = t.seconds() - phase_s_;
  if (rel <= 0.0) return 0.0;
  const double f = rate_ * t_b_;
  double total = 0.0;
  // Windows with capture_end in (t - t_p, t + t_b] can contribute.
  const auto k_hi = static_cast<std::int64_t>(std::ceil((rel + t_b_) / t_p_)) + 1;
  const auto k_lo = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor((rel - t_p_) / t_p_)));
  for (std::int64_t k = k_lo; k <= k_hi; ++k) {
    const double end = static_cast<double>(k) * t_p_;  // relative capture end
    const double start = end - t_b_;
    if (rel >= start && rel < end) {
      total += rate_ * (rel - std::max(start, 0.0));  // filling
    } else if (rel >= end && rel < end + t_p_) {
      const double processed_fraction = (rel - end) / t_p_;
      total += f * (1.0 - processed_fraction);  // draining
    }
  }
  return total;
}

double BufferSchedule::max_occupancy_chips(std::uint64_t windows) const {
  // Occupancy is piecewise linear; extrema occur at window boundaries and
  // at capture starts/ends. Sample all such breakpoints plus midpoints.
  double peak = 0.0;
  for (std::uint64_t i = 0; i < windows; ++i) {
    const Window w = window(i);
    for (const double t :
         {w.capture_start.seconds(), w.capture_end.seconds() - 1e-9,
          w.processing_start.seconds(),
          (w.capture_start.seconds() + w.capture_end.seconds()) / 2.0,
          w.processing_end.seconds() - 1e-9}) {
      peak = std::max(peak, occupancy_chips(TimePoint(t)));
    }
  }
  return peak;
}

double BufferSchedule::claimed_bound_chips() const { return 2.0 * rate_ * t_b_; }

namespace {

/// The code's chips rotated left by `shift`, as a packed window.
BitVector cyclic_shift(const BitVector& bits, std::size_t shift) {
  const std::size_t n = bits.size();
  shift %= n;
  if (shift == 0) return bits;
  BitVector out = bits.slice(shift, n - shift);
  out.append(bits.slice(0, shift));
  return out;
}

}  // namespace

CorrelationProfile autocorrelation_profile(const dsss::SpreadCode& code) {
  CorrelationProfile profile;
  const std::size_t n = code.length();
  double total = 0.0;
  for (std::size_t shift = 1; shift < n; ++shift) {
    const double corr = std::abs(code.correlate(cyclic_shift(code.bits(), shift)));
    profile.max_off_peak = std::max(profile.max_off_peak, corr);
    total += corr;
  }
  profile.mean_abs_off_peak = n > 1 ? total / static_cast<double>(n - 1) : 0.0;
  return profile;
}

double max_cross_correlation(const dsss::SpreadCode& a, const dsss::SpreadCode& b) {
  assert(a.length() == b.length());
  double worst = 0.0;
  for (std::size_t shift = 0; shift < b.length(); ++shift) {
    worst = std::max(worst, std::abs(a.correlate(cyclic_shift(b.bits(), shift))));
  }
  return worst;
}

}  // namespace jrsnd::oracle

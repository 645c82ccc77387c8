// Validation models of the DSSS layer that check paper claims and code
// quality rather than serve a run: the §V-B buffer schedule and the
// cyclic correlation profile of a spread code. dsss_buffer_schedule_test
// and dsss_spread_code_test hold the paper's statements to them; production
// code never calls them.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/timing.hpp"

namespace jrsnd::oracle {

/// Buffer-occupancy model of the §V-B schedule.
///
/// The paper asserts ("It can be easily shown that...") that the duty cycle
///   during [i t_p, (i+1) t_p): process the chips buffered during
///   [i t_p - t_b, i t_p), delete them as processed, and capture the chips
///   arriving during [(i+1) t_p - t_b, (i+1) t_p)
/// never overflows a buffer of 2 f chips (f = R t_b). This model makes the
/// claim checkable: it walks the schedule over an arbitrary horizon and
/// reports the exact occupancy high-water mark, the capture windows, and
/// whether a given chip instant lands in a captured window.
class BufferSchedule {
 public:
  /// `phase` shifts the node's duty cycle (nodes are unsynchronized).
  explicit BufferSchedule(const dsss::TimingModel& timing, Duration phase = Duration(0.0));

  struct Window {
    TimePoint capture_start;    ///< chips arriving from here ...
    TimePoint capture_end;      ///< ... to here are stored
    TimePoint processing_start; ///< == capture_end
    TimePoint processing_end;   ///< processed chips are deleted by here
  };

  /// The i-th capture/processing window (i >= 0).
  [[nodiscard]] Window window(std::uint64_t index) const;

  /// True if a chip arriving at `t` falls inside some capture window.
  [[nodiscard]] bool captures(TimePoint t) const;

  /// Buffer occupancy (in chips) at time `t`: captured-but-not-yet-deleted
  /// chips, assuming linear capture at R and linear deletion over the
  /// processing span.
  [[nodiscard]] double occupancy_chips(TimePoint t) const;

  /// Exact high-water mark of occupancy over `windows` duty cycles.
  [[nodiscard]] double max_occupancy_chips(std::uint64_t windows = 64) const;

  /// The paper's claimed bound: two buffers' worth of chips, 2 f = 2 R t_b.
  [[nodiscard]] double claimed_bound_chips() const;

 private:
  double phase_s_;
  double t_b_;
  double t_p_;
  double rate_;
};

/// Quality metrics of a concrete spread code: the sliding-window
/// synchronizer depends on the peak autocorrelation standing far above
/// every off-peak shift, and code pools depend on low pairwise
/// cross-correlation. Computed over cyclic shifts.
struct CorrelationProfile {
  double peak = 1.0;           ///< autocorrelation at shift 0 (always 1)
  double max_off_peak = 0.0;   ///< max |autocorrelation| over shifts != 0
  double mean_abs_off_peak = 0.0;
};

/// Cyclic autocorrelation profile of `code`.
[[nodiscard]] CorrelationProfile autocorrelation_profile(const dsss::SpreadCode& code);

/// Max |cross-correlation| of a and b over all cyclic shifts of b.
/// Precondition: equal lengths.
[[nodiscard]] double max_cross_correlation(const dsss::SpreadCode& a,
                                           const dsss::SpreadCode& b);

}  // namespace jrsnd::oracle

#include <gtest/gtest.h>

#include "core/params.hpp"
#include "oracle/dsss_models.hpp"

namespace jrsnd::dsss {
namespace {

using oracle::BufferSchedule;

TimingModel paper_timing() { return TimingModel(core::Params::defaults().timing()); }

TEST(BufferSchedule, WindowGeometry) {
  const TimingModel timing = paper_timing();
  const BufferSchedule schedule(timing);
  const auto w0 = schedule.window(0);
  const double t_p = timing.processing_time().seconds();
  const double t_b = timing.buffer_time().seconds();
  EXPECT_NEAR(w0.capture_end.seconds(), t_p, 1e-12);
  EXPECT_NEAR(w0.capture_end.seconds() - w0.capture_start.seconds(), t_b, 1e-12);
  EXPECT_NEAR(w0.processing_end.seconds() - w0.processing_start.seconds(), t_p, 1e-12);
  const auto w1 = schedule.window(1);
  EXPECT_NEAR(w1.capture_end.seconds() - w0.capture_end.seconds(), t_p, 1e-12);
}

TEST(BufferSchedule, PhaseShiftsWindows) {
  const TimingModel timing = paper_timing();
  const BufferSchedule base(timing);
  const BufferSchedule shifted(timing, seconds(0.01));
  EXPECT_NEAR(shifted.window(0).capture_end.seconds() - base.window(0).capture_end.seconds(),
              0.01, 1e-12);
}

TEST(BufferSchedule, CapturesExactlyTheTailOfEachCycle) {
  const TimingModel timing = paper_timing();
  const BufferSchedule schedule(timing);
  const auto w = schedule.window(3);
  const double mid_capture =
      (w.capture_start.seconds() + w.capture_end.seconds()) / 2.0;
  EXPECT_TRUE(schedule.captures(TimePoint(mid_capture)));
  // Just before the capture window opens: idle (lambda > 1 leaves gaps).
  EXPECT_FALSE(schedule.captures(TimePoint(w.capture_start.seconds() - 1e-6)));
  // At/after capture end: the next cycle's capture has not started yet.
  EXPECT_FALSE(schedule.captures(TimePoint(w.capture_end.seconds() + 1e-6)));
}

TEST(BufferSchedule, PaperOverflowClaimHolds) {
  // §V-B: "the buffer will not overflow with this schedule" — occupancy
  // never exceeds 2 f chips; in fact with immediate deletion it peaks at f.
  const TimingModel timing = paper_timing();
  const BufferSchedule schedule(timing);
  const double peak = schedule.max_occupancy_chips(64);
  const double f = timing.inputs().chip_rate_bps * timing.buffer_time().seconds();
  EXPECT_LE(peak, schedule.claimed_bound_chips() + 1.0);
  EXPECT_LE(peak, f * 1.01);
  EXPECT_GT(peak, f * 0.5);  // the buffer genuinely fills
}

TEST(BufferSchedule, OccupancyIsZeroBeforeFirstCapture) {
  const TimingModel timing = paper_timing();
  const BufferSchedule schedule(timing);
  EXPECT_DOUBLE_EQ(schedule.occupancy_chips(TimePoint(0.0)), 0.0);
}

TEST(BufferSchedule, OccupancyDrainsDuringProcessing) {
  const TimingModel timing = paper_timing();
  const BufferSchedule schedule(timing);
  const auto w = schedule.window(2);
  const double at_start = schedule.occupancy_chips(
      TimePoint(w.processing_start.seconds() + 1e-9));
  const double mid = schedule.occupancy_chips(TimePoint(
      (w.processing_start.seconds() + w.processing_end.seconds()) / 2.0));
  EXPECT_LT(mid, at_start);
}

class BufferScheduleMSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BufferScheduleMSweep, BoundHoldsAcrossLambdaRegimes) {
  core::Params p = core::Params::defaults();
  p.m = GetParam();  // lambda = rho N m R spans ~2.3 .. 45 over the sweep
  const TimingModel timing(p.timing());
  const BufferSchedule schedule(timing, seconds(0.001));
  EXPECT_LE(schedule.max_occupancy_chips(48), schedule.claimed_bound_chips() + 1.0)
      << "m=" << GetParam() << " lambda=" << timing.lambda();
}

INSTANTIATE_TEST_SUITE_P(Ms, BufferScheduleMSweep,
                         ::testing::Values(20, 50, 100, 200, 400));

}  // namespace
}  // namespace jrsnd::dsss

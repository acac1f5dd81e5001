// Unit tests for the tail-latency scheduler (paper Section 5): the two
// drain heuristics and the adaptive-threshold dynamics (+1% on qualified
// epochs, -10% on missed ones, re-tuned every 3 epochs).

#include "ingest/scheduler.h"

#include <gtest/gtest.h>

namespace risgraph {
namespace {

SchedulerOptions TestOptions() {
  SchedulerOptions opt;
  opt.latency_target_ns = 20'000'000;
  opt.wait_fraction = 0.8;
  opt.initial_threshold = 48;
  opt.adjust_every_epochs = 3;
  return opt;
}

TEST(Scheduler, NoUnsafeNoDrain) {
  Scheduler s(TestOptions());
  EXPECT_FALSE(s.ShouldDrainUnsafe(0, 0));
  EXPECT_FALSE(s.ShouldDrainUnsafe(0, 1'000'000'000));  // wait is moot
}

TEST(Scheduler, DrainsWhenBacklogHitsThreshold) {
  Scheduler s(TestOptions());
  EXPECT_FALSE(s.ShouldDrainUnsafe(47, 0));
  EXPECT_TRUE(s.ShouldDrainUnsafe(48, 0));
  EXPECT_TRUE(s.ShouldDrainUnsafe(500, 0));
}

TEST(Scheduler, DrainsWhenEarliestWaitNears08Target) {
  Scheduler s(TestOptions());
  // 0.8 x 20 ms = 16 ms.
  EXPECT_FALSE(s.ShouldDrainUnsafe(1, 15'900'000));
  EXPECT_TRUE(s.ShouldDrainUnsafe(1, 16'000'000));
  EXPECT_TRUE(s.ShouldDrainUnsafe(1, 19'000'000));
}

TEST(Scheduler, ThresholdGrowsSlowlyWhenQualified) {
  Scheduler s(TestOptions());
  uint64_t before = s.unsafe_threshold();
  // Three all-qualified epochs trigger one +1% adjustment.
  s.OnEpochEnd(1000, 0);
  s.OnEpochEnd(1000, 0);
  EXPECT_EQ(s.unsafe_threshold(), before);  // not yet: adjusts every 3
  s.OnEpochEnd(1000, 0);
  EXPECT_GT(s.unsafe_threshold(), before);
  EXPECT_LE(s.unsafe_threshold(), before + std::max<uint64_t>(1, before / 100));
}

TEST(Scheduler, ThresholdDropsFastWhenMissing) {
  Scheduler s(TestOptions());
  uint64_t before = s.unsafe_threshold();
  // 1% misses breaks a P999 goal.
  s.OnEpochEnd(990, 10);
  s.OnEpochEnd(990, 10);
  s.OnEpochEnd(990, 10);
  uint64_t after = s.unsafe_threshold();
  EXPECT_LT(after, before);
  EXPECT_EQ(after, before - std::max<uint64_t>(1, before / 10));
}

TEST(Scheduler, ThresholdNeverReachesZero) {
  SchedulerOptions opt = TestOptions();
  opt.initial_threshold = 1;
  Scheduler s(opt);
  for (int i = 0; i < 100; ++i) s.OnEpochEnd(0, 100);
  EXPECT_GE(s.unsafe_threshold(), 1u);
}

TEST(Scheduler, AsymmetricRecoveryMatchesPaperRates) {
  // After a big drop, recovery is slow: -10% then many +1% steps to return —
  // the paper's "increase ... by 1% each time, and when decreasing, adjusts
  // ... by 10%" asymmetry. A large threshold keeps the 1% steps above the
  // +1 clamp so the rates are actually proportional.
  SchedulerOptions opt = TestOptions();
  opt.initial_threshold = 1000;
  Scheduler s(opt);
  uint64_t start = s.unsafe_threshold();
  for (int i = 0; i < 3; ++i) s.OnEpochEnd(0, 100);  // one -10% step
  uint64_t dropped = s.unsafe_threshold();
  ASSERT_LT(dropped, start);
  int recovery_adjustments = 0;
  while (s.unsafe_threshold() < start && recovery_adjustments < 1000) {
    for (int i = 0; i < 3; ++i) s.OnEpochEnd(100, 0);
    recovery_adjustments++;
  }
  EXPECT_GT(recovery_adjustments, 5);  // much slower up than down
}

TEST(Scheduler, EmptyEpochsDoNotAdjust) {
  Scheduler s(TestOptions());
  uint64_t before = s.unsafe_threshold();
  for (int i = 0; i < 12; ++i) s.OnEpochEnd(0, 0);
  EXPECT_EQ(s.unsafe_threshold(), before);
}

}  // namespace
}  // namespace risgraph

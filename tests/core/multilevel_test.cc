#include "core/multilevel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/estimator.h"
#include "workload/workload.h"

namespace cote {
namespace {

TimeModel FlatModel() {
  TimeModel m;
  m.ct[0] = m.ct[1] = m.ct[2] = 1e-6;
  return m;
}

TEST(MultiLevelTest, LevelsAreMonotone) {
  Workload w = LinearWorkload();
  MultiLevelEstimator ml(FlatModel(), OptimizerOptions{}, {1, 2, 64});
  for (int qi : {4, 9, 14}) {  // the largest query of each batch
    auto result = ml.Estimate(w.queries[qi]);
    ASSERT_EQ(result.levels.size(), 3u);
    // More permissive levels enumerate at least as many joins and plans.
    for (size_t i = 1; i < result.levels.size(); ++i) {
      EXPECT_GE(result.levels[i].joins_ordered,
                result.levels[i - 1].joins_ordered);
      EXPECT_GE(result.levels[i].plan_estimates.total(),
                result.levels[i - 1].plan_estimates.total());
      EXPECT_GE(result.levels[i].estimated_seconds,
                result.levels[i - 1].estimated_seconds);
    }
  }
}

TEST(MultiLevelTest, PiggybackMatchesDedicatedPasses) {
  // §6.2: one shared pass must reproduce what per-level estimation finds.
  Workload w = LinearWorkload();
  const QueryGraph& q = w.queries[7];
  MultiLevelEstimator ml(FlatModel(), OptimizerOptions{}, {1, 3, 64});
  auto shared = ml.Estimate(q);

  for (const auto& level : shared.levels) {
    OptimizerOptions opt;
    opt.enumeration.max_composite_inner = level.inner_limit;
    CompileTimeEstimator dedicated(FlatModel(), opt);
    CompileTimeEstimate est = dedicated.Estimate(q);
    for (int m = 0; m < kNumJoinMethods; ++m) {
      EXPECT_EQ(level.plan_estimates.counts[m],
                est.plan_estimates.counts[m])
          << "limit=" << level.inner_limit << " method=" << m;
    }
  }
}

TEST(MultiLevelTest, SharedPassCheaperThanSeparatePasses) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[14];  // 10-table star
  MultiLevelEstimator ml(FlatModel(), OptimizerOptions{}, {1, 2, 3, 64});

  // Wall-clock comparison: take the best of three for each side to shake
  // off scheduler noise, and allow generous slack — the structural claim
  // (estimates identical to dedicated passes) is asserted elsewhere.
  double shared_time = 1e18, separate_time = 1e18;
  MultiLevelEstimator::Result shared;
  for (int rep = 0; rep < 3; ++rep) {
    StopWatch shared_watch;
    shared = ml.Estimate(q);
    shared_time = std::min(shared_time, shared_watch.ElapsedSeconds());

    StopWatch separate_watch;
    for (int limit : {1, 2, 3, 64}) {
      OptimizerOptions opt;
      opt.enumeration.max_composite_inner = limit;
      CompileTimeEstimator dedicated(FlatModel(), opt);
      dedicated.Estimate(q);
    }
    separate_time = std::min(separate_time, separate_watch.ElapsedSeconds());
  }
  EXPECT_LT(shared_time, separate_time * 1.5);
  EXPECT_GT(shared.estimation_seconds, 0);
}

TEST(MultiLevelTest, TopLevelMatchesSingleEstimator) {
  Workload w = LinearWorkload();
  const QueryGraph& q = w.queries[3];
  MultiLevelEstimator ml(FlatModel(), OptimizerOptions{}, {64});
  auto result = ml.Estimate(q);
  CompileTimeEstimator single(FlatModel(), OptimizerOptions{});
  CompileTimeEstimate est = single.Estimate(q);
  EXPECT_EQ(result.levels[0].plan_estimates.total(),
            est.plan_estimates.total());
}

// The level list is checked in every build type: Estimate() enumerates at
// the last level, so an empty list would read past the end and an unsorted
// one would enumerate at a level that is not the widest.
TEST(MultiLevelDeathTest, EmptyLevelListIsFatal) {
  EXPECT_DEATH(
      { MultiLevelEstimator ml(FlatModel(), OptimizerOptions{}, {}); },
      "COTE_CHECK failed");
}

TEST(MultiLevelDeathTest, UnsortedLevelListIsFatal) {
  EXPECT_DEATH(
      { MultiLevelEstimator ml(FlatModel(), OptimizerOptions{}, {64, 2}); },
      "COTE_CHECK failed");
}

}  // namespace
}  // namespace cote

// Runtime half of the session layer's cross-query reuse contract: the
// second estimate-mode compile of the same query through one
// CompilationSession performs ZERO heap allocations. This extends the
// within-one-query invariant of tests/optimizer/hotpath_alloc_test.cc
// ("warm enumerator re-run allocates nothing") across the whole pipeline:
// bind (warm reset) → counter reset → enumerate → completion count →
// time-model finalize.
//
// Own test binary: COTE_ALLOC_GUARD_IMPLEMENT must define the counting
// global operator new/delete in exactly one executable.

#define COTE_ALLOC_GUARD_IMPLEMENT
#include "tests/common/alloc_guard.h"

#include <gtest/gtest.h>

#include <string>

#include "session/session.h"
#include "workload/workload.h"

namespace cote {
namespace {

OptimizerOptions SmallOptions() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 3;
  return o;
}

class SessionAllocTest : public ::testing::TestWithParam<const char*> {
 protected:
  static Workload MakeWorkload(const std::string& which) {
    if (which == "star") return StarWorkload();
    if (which == "linear") return LinearWorkload();
    return RandomWorkload(/*num_queries=*/6, /*seed=*/7);
  }
};

TEST_P(SessionAllocTest, SecondEstimateOfSameQueryAllocatesNothing) {
  Workload w = MakeWorkload(GetParam());
  const QueryGraph& q = w.queries[w.queries.size() / 2];
  TimeModel model;
  CompilationSession session(SmallOptions());

  CompileTimeEstimate cold = session.Estimate(q, model);

  testing::AllocationCounter counter;
  CompileTimeEstimate warm = session.Estimate(q, model);
  EXPECT_EQ(counter.delta(), 0)
      << "steady-state estimate through a warm session must not allocate";

  // The warm run must be indistinguishable from the cold one.
  for (int m = 0; m < kNumJoinMethods; ++m) {
    EXPECT_EQ(cold.plan_estimates.counts[m], warm.plan_estimates.counts[m]);
  }
  EXPECT_EQ(cold.enumeration.joins_ordered, warm.enumeration.joins_ordered);
  EXPECT_EQ(cold.plan_slots, warm.plan_slots);
  EXPECT_EQ(cold.completion_plans, warm.completion_plans);
  EXPECT_DOUBLE_EQ(cold.estimated_seconds, warm.estimated_seconds);
  EXPECT_EQ(session.stats().warm_resets, 1);
  EXPECT_EQ(session.stats().context_rebinds, 1);
}

TEST_P(SessionAllocTest, WarmEstimatesStayAllocationFreeAcrossRepeats) {
  Workload w = MakeWorkload(GetParam());
  const QueryGraph& q = w.queries[w.queries.size() / 2];
  TimeModel model;
  CompilationSession session(SmallOptions());
  session.Estimate(q, model);

  testing::AllocationCounter counter;
  for (int i = 0; i < 5; ++i) session.Estimate(q, model);
  EXPECT_EQ(counter.delta(), 0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SessionAllocTest,
                         ::testing::Values("linear", "star", "random"));

TEST(SessionAllocSteadyTest, ArmedUntrippedBudgetAllocatesNothing) {
  // The governance hot path — Arm, per-entry/per-plan charges, amortized
  // checkpoints with deadline sampling — adds ZERO heap allocations to a
  // warm estimate. The budget is session-owned POD state; tripping (not
  // exercised here) only ever flips a flag — now an atomic (so a
  // supervisor thread can TripExternal a compile in flight), but the
  // armed-untripped fast path is still a single relaxed load per check.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[w.queries.size() / 2];
  TimeModel model;
  ResourceLimits generous;
  generous.deadline_seconds = 3600.0;
  generous.max_memo_entries = int64_t{1} << 50;
  generous.max_plans = int64_t{1} << 50;
  CompilationSession session(SmallOptions());
  session.Estimate(q, model, generous);

  testing::AllocationCounter counter;
  CompileTimeEstimate warm = session.Estimate(q, model, generous);
  EXPECT_EQ(counter.delta(), 0)
      << "an armed-but-untripped budget must stay allocation-free";
  EXPECT_FALSE(warm.degraded);
}

TEST(SessionAllocSteadyTest, CrossQueryRebindReusesArenas) {
  // Alternating between two queries of different sizes makes every
  // estimate a cold bind. Once both have been seen, the session's storage
  // covers them: the cardinality models, interesting orders and counter
  // rebind in place, and each recycled entry slot keeps its property
  // values' buffers — so a further round allocates nothing at all.
  for (const char* shape : {"linear", "star", "random"}) {
    for (bool parallel : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << shape << (parallel ? " Parallel(4)" : " default"));
      Workload w = shape == std::string("star")     ? StarWorkload()
                   : shape == std::string("linear") ? LinearWorkload()
                                                    : RandomWorkload(6, 7);
      const QueryGraph& a = w.queries[1];
      const QueryGraph& b = w.queries[w.queries.size() - 2];
      ASSERT_NE(a.num_tables(), b.num_tables());
      TimeModel model;
      CompilationSession session(parallel ? OptimizerOptions::Parallel(4)
                                          : OptimizerOptions{});
      CompileTimeEstimate a0 = session.Estimate(a, model);
      CompileTimeEstimate b0 = session.Estimate(b, model);

      session.Estimate(a, model);
      session.Estimate(b, model);

      testing::AllocationCounter second_round;
      CompileTimeEstimate a2 = session.Estimate(a, model);
      CompileTimeEstimate b2 = session.Estimate(b, model);
      EXPECT_EQ(second_round.delta(), 0);
      EXPECT_EQ(session.stats().context_rebinds, 6);
      EXPECT_EQ(session.stats().warm_resets, 0);

      // Every cold rebind reproduces the first estimate exactly.
      for (int m = 0; m < kNumJoinMethods; ++m) {
        EXPECT_EQ(a0.plan_estimates.counts[m], a2.plan_estimates.counts[m]);
        EXPECT_EQ(b0.plan_estimates.counts[m], b2.plan_estimates.counts[m]);
      }
      EXPECT_EQ(a0.plan_slots, a2.plan_slots);
      EXPECT_EQ(b0.plan_slots, b2.plan_slots);
    }
  }
}

}  // namespace
}  // namespace cote

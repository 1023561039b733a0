// Golden equivalence for the rank-parallel enumerator.
//
// The parallel bottom-up enumerator (optimizer/parallel_enumerator.h)
// must be *behaviorally invisible* at every worker count: identical
// EnumerationStats, identical per-join-method counts in estimate mode,
// and — in plan mode — a bit-identical MEMO (entry creation order, plan
// lists, costs) and best plan. The goldens are the 18 cases
// enumerator_equivalence_test.cc pins against the pre-rewrite serial
// enumerator (one table, in tests/common/golden_shapes.h); the serial run
// is additionally used as a direct oracle for plan mode, which has no
// golden table.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "core/time_model.h"
#include "query/query_builder.h"
#include "session/session.h"
#include "tests/common/golden_shapes.h"

namespace cote {
namespace {

const int kWorkerCounts[] = {1, 2, 4, 8};

class ParallelGoldenEquivalenceTest
    : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ParallelGoldenEquivalenceTest, EstimateMatchesGoldensAtEveryWorkerCount) {
  const GoldenCase& gc = GetParam();
  auto catalog = MakeGoldenCatalog(gc.n);
  QueryGraph g = MakeGoldenShape(*catalog, gc.shape, gc.n);
  const TimeModel tm;

  for (int workers : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    OptimizerOptions opts;
    opts.enumeration.max_composite_inner = gc.max_composite_inner;
    opts.parallel_workers = workers;
    CompilationSession session(opts);
    CompileTimeEstimate est = session.Estimate(g, tm);

    EXPECT_EQ(est.enumeration.entries_created, gc.entries_created);
    EXPECT_EQ(est.enumeration.joins_unordered, gc.joins_unordered);
    EXPECT_EQ(est.enumeration.joins_ordered, gc.joins_ordered);
    EXPECT_EQ(est.plan_estimates.nljn(), gc.nljn);
    EXPECT_EQ(est.plan_estimates.mgjn(), gc.mgjn);
    EXPECT_EQ(est.plan_estimates.hsjn(), gc.hsjn);
    EXPECT_EQ(est.parallel_workers, workers);
    if (workers == 1) {
      // parallel_workers = 1 is the exact serial code path: no team, no
      // shards, no busy accounting.
      EXPECT_EQ(est.enumeration_busy_seconds, 0.0);
    } else {
      EXPECT_GT(est.enumeration_busy_seconds, 0.0);
    }

    // Warm re-estimate through the same session: the shard counters are
    // reused (arena reuse) and must reproduce the counts exactly.
    CompileTimeEstimate warm = session.Estimate(g, tm);
    EXPECT_EQ(warm.enumeration.entries_created, gc.entries_created);
    EXPECT_EQ(warm.enumeration.joins_unordered, gc.joins_unordered);
    EXPECT_EQ(warm.enumeration.joins_ordered, gc.joins_ordered);
    EXPECT_EQ(warm.plan_estimates.nljn(), gc.nljn);
    EXPECT_EQ(warm.plan_estimates.mgjn(), gc.mgjn);
    EXPECT_EQ(warm.plan_estimates.hsjn(), gc.hsjn);
    EXPECT_EQ(warm.plan_slots, est.plan_slots);
  }
}

TEST_P(ParallelGoldenEquivalenceTest, PlanModeBitIdenticalToSerial) {
  const GoldenCase& gc = GetParam();
  auto catalog = MakeGoldenCatalog(gc.n);
  QueryGraph g = MakeGoldenShape(*catalog, gc.shape, gc.n);

  OptimizerOptions serial_opts;
  serial_opts.enumeration.max_composite_inner = gc.max_composite_inner;
  CompilationSession serial_session(serial_opts);
  StatusOr<OptimizeResult> serial = serial_session.Optimize(g);
  ASSERT_TRUE(serial.ok());
  const OptimizeResult& s = serial.value();
  EXPECT_EQ(s.stats.parallel_workers, 1);
  EXPECT_EQ(s.stats.enumeration.entries_created, gc.entries_created);

  for (int workers : kWorkerCounts) {
    if (workers == 1) continue;  // the serial run above *is* workers=1
    SCOPED_TRACE("workers=" + std::to_string(workers));
    OptimizerOptions opts = serial_opts;
    opts.parallel_workers = workers;
    CompilationSession session(opts);
    StatusOr<OptimizeResult> parallel = session.Optimize(g);
    ASSERT_TRUE(parallel.ok());
    const OptimizeResult& p = parallel.value();

    // Identical enumeration and generation counters.
    EXPECT_EQ(p.stats.enumeration.entries_created, gc.entries_created);
    EXPECT_EQ(p.stats.enumeration.joins_unordered, gc.joins_unordered);
    EXPECT_EQ(p.stats.enumeration.joins_ordered, gc.joins_ordered);
    for (int m = 0; m < kNumJoinMethods; ++m) {
      EXPECT_EQ(p.stats.join_plans_generated.counts[m],
                s.stats.join_plans_generated.counts[m]);
    }
    EXPECT_EQ(p.stats.enforcer_plans, s.stats.enforcer_plans);
    EXPECT_EQ(p.stats.scan_plans, s.stats.scan_plans);
    EXPECT_EQ(p.stats.plans_stored, s.stats.plans_stored);
    EXPECT_EQ(p.stats.memo_entries, s.stats.memo_entries);
    EXPECT_EQ(p.stats.memo_bytes, s.stats.memo_bytes);
    EXPECT_EQ(p.stats.parallel_workers, workers);

    // Bit-identical plan choice.
    ASSERT_NE(p.best_plan, nullptr);
    EXPECT_EQ(p.best_plan->cost, s.best_plan->cost);
    EXPECT_EQ(p.stats.best_cost, s.stats.best_cost);

    // Bit-identical MEMO: same entry creation order (dense-id layout),
    // and per entry the same plan list — length, cost sequence (insertion
    // order matters: it encodes the pruning tie-breaks), and properties.
    const auto& se = s.memo->entries_in_order();
    const auto& pe = p.memo->entries_in_order();
    ASSERT_EQ(pe.size(), se.size());
    for (size_t i = 0; i < se.size(); ++i) {
      EXPECT_EQ(pe[i]->set().bits(), se[i]->set().bits()) << "entry " << i;
      EXPECT_EQ(pe[i]->cardinality(), se[i]->cardinality()) << "entry " << i;
      const auto& sp = se[i]->plans();
      const auto& pp = pe[i]->plans();
      ASSERT_EQ(pp.size(), sp.size()) << "entry " << i;
      for (size_t j = 0; j < sp.size(); ++j) {
        EXPECT_EQ(pp[j]->cost, sp[j]->cost) << "entry " << i << " plan " << j;
        EXPECT_EQ(pp[j]->op, sp[j]->op) << "entry " << i << " plan " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Goldens, ParallelGoldenEquivalenceTest,
                         ::testing::ValuesIn(kGoldens), GoldenCaseName);

}  // namespace
}  // namespace cote

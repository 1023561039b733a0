#include "session/session.h"

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/statement_cache.h"
#include "parser/binder.h"
#include "workload/workload.h"

namespace cote {
namespace {

OptimizerOptions SmallOptions() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 3;
  return o;
}

// ---------------------------------------------------------------------------
// OptimizerOptions::Normalize — pins the reconciliation the optimizer ctor
// historically performed (and which both compilation modes now share).

TEST(OptimizerOptionsTest, NormalizeSerialIsIdentity) {
  OptimizerOptions o;
  o.Normalize();
  EXPECT_EQ(o.num_nodes, 1);
  EXPECT_FALSE(o.plangen.parallel);
  EXPECT_EQ(o.cost.num_nodes, 1);
}

TEST(OptimizerOptionsTest, NormalizeNumNodesWins) {
  OptimizerOptions o;
  o.num_nodes = 8;
  o.Normalize();
  EXPECT_TRUE(o.plangen.parallel);
  EXPECT_EQ(o.cost.num_nodes, 8);
  EXPECT_EQ(o.num_nodes, 8);
}

TEST(OptimizerOptionsTest, NormalizeParallelFlagDefaultsToFourNodes) {
  OptimizerOptions o;
  o.plangen.parallel = true;
  o.Normalize();
  EXPECT_EQ(o.num_nodes, 4);
  EXPECT_EQ(o.cost.num_nodes, 4);
  EXPECT_TRUE(o.plangen.parallel);
}

TEST(OptimizerOptionsTest, NormalizeQuirkTrustsExplicitCostNodeCount) {
  // The deliberate quirk: plangen.parallel with an explicit cost-model
  // node count leaves num_nodes alone — the caller has already chosen
  // their environment.
  OptimizerOptions o;
  o.plangen.parallel = true;
  o.cost.num_nodes = 16;
  o.Normalize();
  EXPECT_EQ(o.num_nodes, 1);
  EXPECT_EQ(o.cost.num_nodes, 16);
  EXPECT_TRUE(o.plangen.parallel);
}

TEST(OptimizerOptionsTest, NormalizeIsIdempotent) {
  OptimizerOptions o = OptimizerOptions::Parallel(6);
  o.Normalize();
  OptimizerOptions once = o;
  o.Normalize();
  EXPECT_EQ(o.num_nodes, once.num_nodes);
  EXPECT_EQ(o.cost.num_nodes, once.cost.num_nodes);
  EXPECT_EQ(o.plangen.parallel, once.plangen.parallel);
}

// ---------------------------------------------------------------------------
// Cross-query reuse: one shared session must be observationally identical
// to a fresh session per query, in both compilation modes.

void ExpectSameOptimize(const OptimizeResult& x, const OptimizeResult& y) {
  EXPECT_DOUBLE_EQ(x.stats.best_cost, y.stats.best_cost);
  EXPECT_EQ(x.stats.plans_stored, y.stats.plans_stored);
  EXPECT_EQ(x.stats.memo_entries, y.stats.memo_entries);
  EXPECT_EQ(x.stats.enumeration.joins_ordered,
            y.stats.enumeration.joins_ordered);
  EXPECT_EQ(x.stats.enumeration.entries_created,
            y.stats.enumeration.entries_created);
  for (int m = 0; m < kNumJoinMethods; ++m) {
    EXPECT_EQ(x.stats.join_plans_generated.counts[m],
              y.stats.join_plans_generated.counts[m]);
  }
}

void ExpectSameEstimate(const CompileTimeEstimate& x,
                        const CompileTimeEstimate& y) {
  for (int m = 0; m < kNumJoinMethods; ++m) {
    EXPECT_EQ(x.plan_estimates.counts[m], y.plan_estimates.counts[m]);
  }
  EXPECT_EQ(x.enumeration.joins_ordered, y.enumeration.joins_ordered);
  EXPECT_EQ(x.plan_slots, y.plan_slots);
  EXPECT_EQ(x.estimated_memo_bytes, y.estimated_memo_bytes);
  EXPECT_EQ(x.completion_plans, y.completion_plans);
  EXPECT_DOUBLE_EQ(x.estimated_seconds, y.estimated_seconds);
}

TEST(CompilationSessionTest, CrossQueryPlanModeMatchesFreshSessions) {
  Workload w = StarWorkload();
  const QueryGraph& a = w.queries[3];
  const QueryGraph& b = w.queries[6];

  CompilationSession shared(SmallOptions());
  auto sa = shared.Optimize(a);
  auto sb = shared.Optimize(b);
  auto sa2 = shared.Optimize(a);  // back to a: cold rebind, same result
  ASSERT_TRUE(sa.ok() && sb.ok() && sa2.ok());

  CompilationSession fresh_a(SmallOptions());
  CompilationSession fresh_b(SmallOptions());
  auto fa = fresh_a.Optimize(a);
  auto fb = fresh_b.Optimize(b);
  ASSERT_TRUE(fa.ok() && fb.ok());

  ExpectSameOptimize(*sa, *fa);
  ExpectSameOptimize(*sb, *fb);
  ExpectSameOptimize(*sa2, *fa);
}

TEST(CompilationSessionTest, CrossQueryEstimateModeMatchesFreshSessions) {
  Workload w = StarWorkload();
  const QueryGraph& a = w.queries[4];
  const QueryGraph& b = w.queries[7];
  TimeModel model;

  CompilationSession shared(SmallOptions());
  CompileTimeEstimate sa = shared.Estimate(a, model);
  CompileTimeEstimate sb = shared.Estimate(b, model);
  CompileTimeEstimate sa2 = shared.Estimate(a, model);

  CompilationSession fresh_a(SmallOptions());
  CompilationSession fresh_b(SmallOptions());
  CompileTimeEstimate fa = fresh_a.Estimate(a, model);
  CompileTimeEstimate fb = fresh_b.Estimate(b, model);

  ExpectSameEstimate(sa, fa);
  ExpectSameEstimate(sb, fb);
  ExpectSameEstimate(sa2, fa);
}

TEST(CompilationSessionTest, ParallelEstimateMatchesFreshSession) {
  Workload w = LinearWorkload();
  const QueryGraph& a = w.queries[2];
  const QueryGraph& b = w.queries[4];
  TimeModel model;
  OptimizerOptions par = OptimizerOptions::Parallel(4);
  par.enumeration.max_composite_inner = 3;

  CompilationSession shared(par);
  CompileTimeEstimate sa = shared.Estimate(a, model);
  CompileTimeEstimate sb = shared.Estimate(b, model);
  CompilationSession fresh_a(par);
  CompilationSession fresh_b(par);
  ExpectSameEstimate(sa, fresh_a.Estimate(a, model));
  ExpectSameEstimate(sb, fresh_b.Estimate(b, model));
}

TEST(CompilationSessionTest, MixedModesShareOneContext) {
  // Optimize and estimate the same query through one session; the
  // estimate must match a dedicated estimator's.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[5];
  TimeModel model;
  CompilationSession session(SmallOptions());
  auto plan = session.Optimize(q);
  ASSERT_TRUE(plan.ok());
  CompileTimeEstimate est = session.Estimate(q, model);
  CompileTimeEstimator dedicated(model, SmallOptions());
  ExpectSameEstimate(est, dedicated.Estimate(q));
}

// ---------------------------------------------------------------------------
// Session bookkeeping.

TEST(CompilationSessionTest, StatsTrackWarmAndColdBinds) {
  Workload w = StarWorkload();
  const QueryGraph& a = w.queries[3];
  const QueryGraph& b = w.queries[5];
  TimeModel model;
  CompilationSession session(SmallOptions());
  session.Estimate(a, model);  // cold
  session.Estimate(a, model);  // warm: same object, same fingerprint
  session.Estimate(b, model);  // cold
  const CompilationStats& st = session.stats();
  EXPECT_EQ(st.estimates_run, 3);
  EXPECT_EQ(st.context_rebinds, 2);
  EXPECT_EQ(st.warm_resets, 1);
  EXPECT_EQ(st.plans_compiled, 0);
  EXPECT_GE(st.cumulative_stages.Total(), st.last_stages.Total());
}

TEST(CompilationSessionTest, EstimateCountsCompletionPlans) {
  auto catalog = MakeTpchCatalog();
  auto agg = Binder::BindSql(*catalog, R"(
      SELECT n.n_name, SUM(l.l_extendedprice)
      FROM lineitem l, supplier s, nation n
      WHERE l.l_suppkey = s.s_suppkey AND s.s_nationkey = n.n_nationkey
      GROUP BY n.n_name ORDER BY n.n_name)");
  ASSERT_TRUE(agg.ok());
  auto join = Binder::BindSql(*catalog, R"(
      SELECT * FROM orders o, lineitem l
      WHERE o.o_orderkey = l.l_orderkey)");
  ASSERT_TRUE(join.ok());

  TimeModel model;
  CompilationSession session(SmallOptions());
  // Two group-by candidates (sort- and hash-based) + one final sort.
  EXPECT_EQ(session.Estimate(*agg, model).completion_plans, 3);
  // A bare join has no completion work.
  EXPECT_EQ(session.Estimate(*join, model).completion_plans, 0);
}

TEST(CompilationSessionTest, StageSumNeverExceedsTotal) {
  // Regression: the finalize stage's timer used to stop *after* the total
  // was snapshotted, so bind+enumerate+complete+finalize could exceed the
  // recorded total. The pool's per-stage fraction reporting relies on
  // this invariant. (Holds exactly despite microsecond truncation: each
  // stage interval lies inside the total window and truncation is
  // subadditive.)
  Workload w = StarWorkload();
  TimeModel model;
  CompilationSession session(SmallOptions());
  for (size_t i = 3; i <= 6; ++i) {
    auto r = session.Optimize(w.queries[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(session.stats().last_stages.Total(), r->stats.total_seconds);
    CompileTimeEstimate e = session.Estimate(w.queries[i], model);
    EXPECT_LE(session.stats().last_stages.Total(), e.estimation_seconds);
  }
  OptimizerOptions low = SmallOptions();
  low.level = OptimizationLevel::kLow;
  CompilationSession low_session(low);
  auto r = low_session.Optimize(w.queries[3]);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(low_session.stats().last_stages.Total(), r->stats.total_seconds);
}

TEST(CompilationSessionTest, StatementCacheCompileThrough) {
  Workload w = LinearWorkload();
  const QueryGraph& q = w.queries[3];
  CompileTimeCache cache(/*capacity=*/4);
  CompilationSession session(SmallOptions());

  auto first = cache.CompileThrough(&session, q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_GT(*first, 0);

  auto second = cache.CompileThrough(&session, q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.hits(), 1);
  // A hit returns the cached measurement verbatim — no recompilation.
  EXPECT_DOUBLE_EQ(*second, *first);
  EXPECT_EQ(session.stats().plans_compiled, 1);
}

TEST(CompilationSessionTest, OptimizerFacadeMatchesDirectSession) {
  Workload w = StarWorkload();
  Optimizer facade(SmallOptions());
  CompilationSession session(SmallOptions());
  for (size_t i = 3; i <= 6; ++i) {
    auto f = facade.Optimize(w.queries[i]);
    auto s = session.Optimize(w.queries[i]);
    ASSERT_TRUE(f.ok() && s.ok());
    ExpectSameOptimize(*f, *s);
  }
}

TEST(CompilationSessionTest, EmptyGraphIsRejected) {
  QueryGraph empty;
  CompilationSession session(SmallOptions());
  auto r = session.Optimize(empty);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace cote

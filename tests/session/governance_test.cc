#include <gtest/gtest.h>

#include <vector>

#include "common/resource_budget.h"
#include "core/meta_optimizer.h"
#include "session/session.h"
#include "session/session_pool.h"
#include "tests/common/serial_batch.h"
#include "workload/workload.h"

namespace cote {
namespace {

OptimizerOptions SmallOptions() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 3;
  return o;
}

/// Limits far beyond what any test query can use: the budget arms (every
/// checkpoint runs its bookkeeping) but never trips — the configuration
/// whose overhead EXPERIMENTS.md benchmarks against ungoverned runs.
ResourceLimits GenerousLimits() {
  ResourceLimits limits;
  limits.deadline_seconds = 3600.0;
  limits.max_memo_entries = int64_t{1} << 50;
  limits.max_plans = int64_t{1} << 50;
  return limits;
}

/// Limits a 10-table query cannot fit in (but tiny queries can): the
/// per-index-isolation tests rely on this split.
ResourceLimits TinyLimits() {
  ResourceLimits limits;
  limits.max_memo_entries = 24;
  return limits;
}

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
  EXPECT_EQ(x.degraded, y.degraded);
  EXPECT_EQ(x.tripped_limit, y.tripped_limit);
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
  EXPECT_EQ(x.degraded, y.degraded);
}

// ---------------------------------------------------------------------------
// ResourceBudget unit behavior.

TEST(ResourceBudgetTest, UnlimitedLimitsArmNothing) {
  ResourceBudget budget;
  budget.Arm(ResourceLimits{});
  EXPECT_FALSE(budget.armed());
  EXPECT_FALSE(budget.Checkpoint());
  budget.ChargeEntries(1 << 20);
  budget.ChargePlans(1 << 20);
  EXPECT_FALSE(budget.tripped());
}

TEST(ResourceBudgetTest, EntryCapTripsOnlyPastTheCap) {
  ResourceBudget budget;
  ResourceLimits limits;
  limits.max_memo_entries = 10;
  budget.Arm(limits);
  EXPECT_TRUE(budget.armed());
  budget.ChargeEntries(10);  // exactly at the cap: not tripped
  EXPECT_FALSE(budget.tripped());
  budget.ChargeEntries(1);  // past it
  EXPECT_TRUE(budget.tripped());
  EXPECT_EQ(budget.tripped_limit(), BudgetLimit::kMemoEntries);
}

TEST(ResourceBudgetTest, CheckpointCapTripsAtTheNthCheck) {
  ResourceBudget budget;
  ResourceLimits limits;
  limits.max_checkpoints = 3;
  budget.Arm(limits);
  EXPECT_FALSE(budget.Checkpoint());
  EXPECT_FALSE(budget.Checkpoint());
  EXPECT_TRUE(budget.Checkpoint());  // trips *at* the 3rd check
  EXPECT_EQ(budget.tripped_limit(), BudgetLimit::kCheckpoints);
  EXPECT_EQ(budget.checkpoints(), 3);
}

TEST(ResourceBudgetTest, FirstTrippedLimitWins) {
  ResourceBudget budget;
  ResourceLimits limits;
  limits.max_memo_entries = 1;
  limits.max_plans = 1;
  budget.Arm(limits);
  budget.ChargeEntries(2);
  budget.ChargePlans(2);
  EXPECT_EQ(budget.tripped_limit(), BudgetLimit::kMemoEntries);
}

TEST(ResourceBudgetTest, DeadlineIsSampledAtTheFirstCheckpoint) {
  ResourceBudget budget;
  ResourceLimits limits;
  limits.deadline_seconds = 1e-12;  // armed, and already in the past
  budget.Arm(limits);
  EXPECT_TRUE(budget.Checkpoint());
  EXPECT_EQ(budget.tripped_limit(), BudgetLimit::kDeadline);
}

TEST(ResourceBudgetTest, TripStatusMapsLimitsToCodes) {
  ResourceBudget budget;
  EXPECT_TRUE(budget.TripStatus().ok());

  ResourceLimits deadline;
  deadline.deadline_seconds = 1e-12;
  budget.Arm(deadline);
  budget.Checkpoint();
  EXPECT_EQ(budget.TripStatus().code(), StatusCode::kDeadlineExceeded);

  ResourceLimits plans;
  plans.max_plans = 1;
  budget.Arm(plans);  // re-arming zeroes the prior trip
  EXPECT_FALSE(budget.tripped());
  budget.ChargePlans(2);
  EXPECT_EQ(budget.TripStatus().code(), StatusCode::kResourceExhausted);

  budget.Disarm();
  EXPECT_FALSE(budget.armed());
  EXPECT_TRUE(budget.TripStatus().ok());
}

// ---------------------------------------------------------------------------
// Governed compiles: equivalence when the budget does not trip.

TEST(GovernanceTest, UnlimitedLimitsMatchUngovernedCompile) {
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  Workload random = RandomWorkload(13, 42);
  TimeModel model;
  for (const Workload* w : {&linear, &star, &random}) {
    const QueryGraph& q = w->queries[w->size() > 12 ? 12 : w->size() - 1];
    CompilationSession governed(SmallOptions());
    CompilationSession plain(SmallOptions());
    auto g = governed.Optimize(q, ResourceLimits{});
    auto p = plain.Optimize(q);
    ASSERT_TRUE(g.ok() && p.ok());
    EXPECT_FALSE(g->degraded);
    ExpectSameOptimize(*g, *p);
    ExpectSameEstimate(governed.Estimate(q, model, ResourceLimits{}),
                       plain.Estimate(q, model));
  }
}

TEST(GovernanceTest, ArmedButUntrippedMatchesUngoverned) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  TimeModel model;
  CompilationSession governed(SmallOptions());
  CompilationSession plain(SmallOptions());
  auto g = governed.Optimize(q, GenerousLimits());
  auto p = plain.Optimize(q);
  ASSERT_TRUE(g.ok() && p.ok());
  EXPECT_FALSE(g->degraded);
  ExpectSameOptimize(*g, *p);
  ExpectSameEstimate(governed.Estimate(q, model, GenerousLimits()),
                     plain.Estimate(q, model));
  EXPECT_EQ(governed.stats().degraded_runs, 0);
}

// ---------------------------------------------------------------------------
// Tripped budgets: greedy fallback, statuses, determinism.

TEST(GovernanceTest, EntryCapDegradesToGreedyPlan) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];  // 10 tables: blows a 24-entry cap
  CompilationSession session(SmallOptions());
  auto r = session.Optimize(q, TinyLimits());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->degraded);
  EXPECT_EQ(r->tripped_limit, BudgetLimit::kMemoEntries);
  EXPECT_EQ(r->degraded_stage, CompileStage::kEnumerate);
  ASSERT_NE(r->best_plan, nullptr);
  EXPECT_GT(r->stats.best_cost, 0.0);
  EXPECT_EQ(session.stats().degraded_runs, 1);

  // The fallback is exactly the kLow compile of the same query.
  OptimizerOptions low = SmallOptions();
  low.level = OptimizationLevel::kLow;
  CompilationSession low_session(low);
  auto l = low_session.Optimize(q);
  ASSERT_TRUE(l.ok());
  EXPECT_DOUBLE_EQ(r->stats.best_cost, l->stats.best_cost);
}

TEST(GovernanceTest, PlanCapDegradesToGreedyPlan) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits limits;
  limits.max_plans = 50;
  CompilationSession session(SmallOptions());
  auto r = session.Optimize(q, limits);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->degraded);
  EXPECT_EQ(r->tripped_limit, BudgetLimit::kPlans);
  ASSERT_NE(r->best_plan, nullptr);
}

TEST(GovernanceTest, CheckpointCapIsDeterministic) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits limits;
  limits.max_checkpoints = 5;
  CompilationSession a(SmallOptions());
  CompilationSession b(SmallOptions());
  auto ra = a.Optimize(q, limits);
  auto rb = b.Optimize(q, limits);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_TRUE(ra->degraded);
  EXPECT_EQ(ra->tripped_limit, BudgetLimit::kCheckpoints);
  ExpectSameOptimize(*ra, *rb);
}

TEST(GovernanceTest, DeadlineTripDegrades) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits limits;
  limits.deadline_seconds = 1e-12;  // sampled (and expired) at checkpoint 1
  CompilationSession session(SmallOptions());
  auto r = session.Optimize(q, limits);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->degraded);
  EXPECT_EQ(r->tripped_limit, BudgetLimit::kDeadline);
  ASSERT_NE(r->best_plan, nullptr);
}

TEST(GovernanceTest, FailPolicyReturnsBudgetStatus) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];

  ResourceLimits exhausted = TinyLimits();
  exhausted.on_trip = BudgetAction::kFail;
  CompilationSession session(SmallOptions());
  auto r = session.Optimize(q, exhausted);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  ResourceLimits late;
  late.deadline_seconds = 1e-12;
  late.on_trip = BudgetAction::kFail;
  auto d = session.Optimize(q, late);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDeadlineExceeded);

  // The session survives the failures: a normal compile still works and
  // matches a fresh session's.
  auto after = session.Optimize(q);
  CompilationSession fresh(SmallOptions());
  auto f = fresh.Optimize(q);
  ASSERT_TRUE(after.ok() && f.ok());
  ExpectSameOptimize(*after, *f);
}

TEST(GovernanceTest, TopDownEnumeratorIsGovernedToo) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  OptimizerOptions opts = SmallOptions();
  opts.enumeration.kind = EnumeratorKind::kTopDown;

  CompilationSession governed(opts);
  CompilationSession plain(opts);
  auto g = governed.Optimize(q, GenerousLimits());
  auto p = plain.Optimize(q);
  ASSERT_TRUE(g.ok() && p.ok());
  EXPECT_FALSE(g->degraded);
  ExpectSameOptimize(*g, *p);

  auto tripped = governed.Optimize(q, TinyLimits());
  ASSERT_TRUE(tripped.ok());
  EXPECT_TRUE(tripped->degraded);
  EXPECT_EQ(tripped->tripped_limit, BudgetLimit::kMemoEntries);
  ASSERT_NE(tripped->best_plan, nullptr);
}

TEST(GovernanceTest, GovernedEstimateReturnsPartialCountsFlagged) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  TimeModel model;
  CompilationSession session(SmallOptions());
  CompileTimeEstimate full = session.Estimate(q, model);
  CompileTimeEstimate partial = session.Estimate(q, model, TinyLimits());
  EXPECT_TRUE(partial.degraded);
  EXPECT_EQ(partial.tripped_limit, BudgetLimit::kMemoEntries);
  EXPECT_EQ(partial.degraded_stage, CompileStage::kEnumerate);
  // The partial estimate covers a strict prefix of the enumeration and
  // skips completion counting entirely.
  EXPECT_LT(partial.enumeration.entries_created,
            full.enumeration.entries_created);
  EXPECT_LE(partial.plan_estimates.total(), full.plan_estimates.total());
  EXPECT_EQ(partial.completion_plans, 0);
  EXPECT_EQ(session.stats().degraded_runs, 1);
}

// ---------------------------------------------------------------------------
// Warm-state invariance: a budget-tripped compile must leave no trace —
// the next query behaves exactly as on a fresh session.

TEST(GovernanceTest, TrippedCompileLeavesNoWarmState) {
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  Workload random = RandomWorkload(13, 42);
  for (const Workload* w : {&linear, &star, &random}) {
    const QueryGraph& good = w->queries[3];
    const QueryGraph& heavy = w->queries[w->size() > 12 ? 12 : w->size() - 1];

    CompilationSession session(SmallOptions());
    auto first = session.Optimize(good);
    auto tripped = session.Optimize(heavy, TinyLimits());
    auto second = session.Optimize(good);
    ASSERT_TRUE(first.ok() && tripped.ok() && second.ok());

    CompilationSession fresh(SmallOptions());
    auto reference = fresh.Optimize(good);
    ASSERT_TRUE(reference.ok());
    ExpectSameOptimize(*second, *reference);
    ExpectSameOptimize(*first, *reference);
  }
}

TEST(GovernanceTest, TrippedEstimateLeavesNoWarmState) {
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  Workload random = RandomWorkload(13, 42);
  TimeModel model;
  for (const Workload* w : {&linear, &star, &random}) {
    const QueryGraph& good = w->queries[3];
    const QueryGraph& heavy = w->queries[w->size() > 12 ? 12 : w->size() - 1];

    CompilationSession session(SmallOptions());
    CompileTimeEstimate first = session.Estimate(good, model);
    CompileTimeEstimate tripped = session.Estimate(heavy, model, TinyLimits());
    EXPECT_TRUE(tripped.degraded);
    CompileTimeEstimate second = session.Estimate(good, model);

    CompilationSession fresh(SmallOptions());
    CompileTimeEstimate reference = fresh.Estimate(good, model);
    ExpectSameEstimate(second, reference);
    ExpectSameEstimate(first, reference);
  }
}

TEST(GovernanceTest, SerialGovernedBatchIsolatesPerIndex) {
  // Per-query limits: small queries sail through untouched, the 10-table
  // queries degrade — each index independent of its neighbors.
  Workload w = StarWorkload();
  std::vector<const QueryGraph*> qs;
  for (int i : {3, 12, 4, 13}) {
    qs.push_back(&w.queries[static_cast<size_t>(i)]);
  }
  // 64 entries: room for the 6-table stars (37 entries), not the 10-table
  // ones (521).
  ResourceLimits limits;
  limits.max_memo_entries = 64;
  CompilationSession governed(SmallOptions());
  auto batch = SerialCompileBatch(governed, qs, limits);
  ASSERT_EQ(batch.size(), qs.size());
  ASSERT_TRUE(batch[0].ok() && batch[1].ok() && batch[2].ok() &&
              batch[3].ok());
  EXPECT_FALSE(batch[0]->degraded);
  EXPECT_TRUE(batch[1]->degraded);
  EXPECT_FALSE(batch[2]->degraded);
  EXPECT_TRUE(batch[3]->degraded);

  // The untouched indices match an entirely ungoverned batch.
  CompilationSession plain(SmallOptions());
  auto reference = SerialCompileBatch(plain, qs);
  ExpectSameOptimize(*batch[0], *reference[0]);
  ExpectSameOptimize(*batch[2], *reference[2]);
  EXPECT_EQ(governed.stats().degraded_runs, 2);
}

TEST(GovernanceTest, ParallelWorkersDegradeAndRecoverLikeSerial) {
  // Smoke-level cross-check here next to the serial governance suite; the
  // full parallel trip matrix lives in parallel_session_test.cc.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  OptimizerOptions par = SmallOptions();
  par.parallel_workers = 4;
  CompilationSession parallel(par);
  CompilationSession serial(SmallOptions());

  auto pt = parallel.Optimize(q, TinyLimits());
  auto st = serial.Optimize(q, TinyLimits());
  ASSERT_TRUE(pt.ok() && st.ok());
  EXPECT_TRUE(pt->degraded);
  EXPECT_EQ(pt->tripped_limit, st->tripped_limit);
  EXPECT_DOUBLE_EQ(pt->stats.best_cost, st->stats.best_cost);

  // Warm-invariant after the trip: the governed-then-clean sequence ends
  // bit-identical to a clean serial compile.
  auto pa = parallel.Optimize(q);
  auto sa = serial.Optimize(q);
  ASSERT_TRUE(pa.ok() && sa.ok());
  EXPECT_FALSE(pa->degraded);
  ExpectSameOptimize(*pa, *sa);
}

TEST(GovernedSessionPoolTest, PoolMatchesSerialGovernedBatch) {
  // Fixture name contains "Session" on purpose: run_checks.sh's TSan gate
  // filters `ctest -R 'Session'`, and per-query re-arming of worker-local
  // budgets is exactly the concurrency this PR adds.
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  std::vector<const QueryGraph*> qs;
  for (const QueryGraph& q : linear.queries) qs.push_back(&q);
  for (const QueryGraph& q : star.queries) qs.push_back(&q);

  ResourceLimits limits;
  limits.max_memo_entries = 64;  // degrades big star queries, spares the rest
  SessionPool pool(4, SmallOptions());
  BatchOptimizeResult got = pool.CompileBatch(qs, limits);

  CompilationSession serial(SmallOptions());
  auto reference = SerialCompileBatch(serial, qs, limits);
  ASSERT_EQ(got.results.size(), reference.size());
  int degraded = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_TRUE(got.results[i].ok() && reference[i].ok()) << i;
    EXPECT_EQ(got.results[i]->degraded, reference[i]->degraded) << i;
    ExpectSameOptimize(*got.results[i], *reference[i]);
    degraded += got.results[i]->degraded ? 1 : 0;
  }
  EXPECT_GT(degraded, 0);  // the limits really do bite...
  EXPECT_LT(degraded, static_cast<int>(qs.size()));  // ...but not everything
  EXPECT_EQ(got.stats.merged.degraded_runs, degraded);
}

// ---------------------------------------------------------------------------
// Stage observer: ordering, degraded traces, removal.

struct EventLog {
  std::vector<StageEvent> events;
  static void Record(void* ctx, const StageEvent& event) {
    static_cast<EventLog*>(ctx)->events.push_back(event);
  }
};

TEST(StageObserverTest, PlanModeFiresAllFourStagesInOrder) {
  Workload w = StarWorkload();
  CompilationSession session(SmallOptions());
  EventLog log;
  session.SetStageObserver(&EventLog::Record, &log);
  ASSERT_TRUE(session.Optimize(w.queries[6]).ok());
  ASSERT_EQ(log.events.size(), 4u);
  EXPECT_EQ(log.events[0].stage, CompileStage::kBind);
  EXPECT_EQ(log.events[1].stage, CompileStage::kEnumerate);
  EXPECT_EQ(log.events[2].stage, CompileStage::kComplete);
  EXPECT_EQ(log.events[3].stage, CompileStage::kFinalize);
  for (const StageEvent& e : log.events) {
    EXPECT_FALSE(e.estimate_mode);
    EXPECT_FALSE(e.budget_tripped);
    EXPECT_GE(e.seconds, 0.0);
  }
}

TEST(StageObserverTest, EstimateModeFiresAllFourStagesInOrder) {
  Workload w = StarWorkload();
  TimeModel model;
  CompilationSession session(SmallOptions());
  EventLog log;
  session.SetStageObserver(&EventLog::Record, &log);
  session.Estimate(w.queries[6], model);
  ASSERT_EQ(log.events.size(), 4u);
  EXPECT_EQ(log.events[0].stage, CompileStage::kBind);
  EXPECT_EQ(log.events[1].stage, CompileStage::kEnumerate);
  EXPECT_EQ(log.events[2].stage, CompileStage::kComplete);
  EXPECT_EQ(log.events[3].stage, CompileStage::kFinalize);
  for (const StageEvent& e : log.events) EXPECT_TRUE(e.estimate_mode);
}

TEST(StageObserverTest, LowLevelSkipsTheCompleteStage) {
  Workload w = StarWorkload();
  OptimizerOptions low = SmallOptions();
  low.level = OptimizationLevel::kLow;
  CompilationSession session(low);
  EventLog log;
  session.SetStageObserver(&EventLog::Record, &log);
  ASSERT_TRUE(session.Optimize(w.queries[6]).ok());
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].stage, CompileStage::kBind);
  EXPECT_EQ(log.events[1].stage, CompileStage::kEnumerate);
  EXPECT_EQ(log.events[2].stage, CompileStage::kFinalize);
}

TEST(StageObserverTest, DegradedCompileTracesTheTripAndSkipsComplete) {
  Workload w = StarWorkload();
  CompilationSession session(SmallOptions());
  EventLog log;
  session.SetStageObserver(&EventLog::Record, &log);
  auto r = session.Optimize(w.queries[12], TinyLimits());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->degraded);
  // bind -> enumerate -> finalize: no complete event, and the trip is
  // visible from the enumerate event onwards.
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].stage, CompileStage::kBind);
  EXPECT_FALSE(log.events[0].budget_tripped);
  EXPECT_EQ(log.events[1].stage, CompileStage::kEnumerate);
  EXPECT_TRUE(log.events[1].budget_tripped);
  EXPECT_EQ(log.events[1].tripped_limit, BudgetLimit::kMemoEntries);
  EXPECT_EQ(log.events[2].stage, CompileStage::kFinalize);
  EXPECT_TRUE(log.events[2].budget_tripped);
}

TEST(StageObserverTest, RemovedObserverSeesNothing) {
  Workload w = StarWorkload();
  CompilationSession session(SmallOptions());
  EventLog log;
  session.SetStageObserver(&EventLog::Record, &log);
  ASSERT_TRUE(session.Optimize(w.queries[3]).ok());
  const size_t after_first = log.events.size();
  EXPECT_GT(after_first, 0u);
  session.SetStageObserver(nullptr, nullptr);
  ASSERT_TRUE(session.Optimize(w.queries[3]).ok());
  EXPECT_EQ(log.events.size(), after_first);
}

// ---------------------------------------------------------------------------
// Meta-optimizer governance: limits derived from the COTE estimate.

TEST(MetaGovernanceTest, DeriveLimitsAppliesHeadroomAndFloors) {
  MetaOptimizerOptions options;
  options.budget_headroom = 4.0;
  MetaOptimizer meta(options);

  CompileTimeEstimate estimate;
  estimate.estimated_seconds = 0.5;
  estimate.enumeration.entries_created = 1000;
  estimate.plan_estimates.counts[0] = 300;
  estimate.completion_plans = 100;
  ResourceLimits limits = meta.DeriveLimits(estimate);
  EXPECT_DOUBLE_EQ(limits.deadline_seconds, 2.0);
  EXPECT_EQ(limits.max_memo_entries, 4000);
  EXPECT_EQ(limits.max_plans, 1600);

  // An all-zero estimate hits every floor instead of tripping instantly.
  ResourceLimits floors = meta.DeriveLimits(CompileTimeEstimate{});
  EXPECT_DOUBLE_EQ(floors.deadline_seconds, 1e-3);
  EXPECT_EQ(floors.max_memo_entries, 64);
  EXPECT_EQ(floors.max_plans, 256);
}

TEST(MetaGovernanceTest, GovernedHighCompileMatchesUngovernedMeta) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];

  MetaOptimizerOptions plain_options;
  plain_options.high.enumeration.max_composite_inner = 3;
  plain_options.threshold = 1e12;  // force the high level to run
  // A default (all-zero) time model estimates 0 seconds, which DeriveLimits
  // floors to a 1ms deadline — instant death for a 10-table compile. Any
  // calibrated model gives the deadline real slack; the count-based caps
  // are what this test pins.
  for (int m = 0; m < kNumJoinMethods; ++m) {
    plain_options.time_model.ct[m] = 1e-4;
  }
  plain_options.time_model.intercept = 1e-3;
  MetaOptimizerOptions governed_options = plain_options;
  governed_options.govern_high = true;

  MetaOptimizer plain(plain_options);
  MetaOptimizer governed(governed_options);
  auto p = plain.Compile(q);
  auto g = governed.Compile(q);
  ASSERT_TRUE(p.ok() && g.ok());
  ASSERT_TRUE(p->reoptimized && g->reoptimized);
  // The default 8x headroom over the COTE estimate never trips a query the
  // estimator has actually seen the likes of: identical plan, with the
  // derived limits recorded for observability.
  EXPECT_FALSE(g->chosen.degraded);
  ExpectSameOptimize(g->chosen, p->chosen);
  EXPECT_GT(g->high_limits.deadline_seconds, 0.0);
  EXPECT_GT(g->high_limits.max_memo_entries, 0);
  EXPECT_GT(g->high_limits.max_plans, 0);
  // The ungoverned meta-optimizer reports all-unlimited limits.
  EXPECT_EQ(p->high_limits.max_memo_entries, 0);
}

TEST(MetaGovernanceTest, StarvedHeadroomDegradesNotHangs) {
  // A pathologically small headroom floors the caps (64 entries / 256
  // plans); a 10-table star blows past them, so the governed meta compile
  // returns the greedy plan instead of the full DP one — the runaway-guard
  // behavior, exercised end to end.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  MetaOptimizerOptions options;
  options.high.enumeration.max_composite_inner = 3;
  options.threshold = 1e12;
  options.govern_high = true;
  options.budget_headroom = 1e-9;
  MetaOptimizer meta(options);
  auto r = meta.Compile(q);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->reoptimized);
  EXPECT_TRUE(r->chosen.degraded);
  EXPECT_NE(r->chosen.best_plan, nullptr);
}

}  // namespace
}  // namespace cote

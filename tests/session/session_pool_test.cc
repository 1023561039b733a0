#include "session/session_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/statement_cache.h"
#include "tests/common/serial_batch.h"
#include "workload/workload.h"

namespace cote {
namespace {

OptimizerOptions SmallOptions() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 3;
  return o;
}

TimeModel BenchModel() {
  TimeModel m;
  m.ct[0] = 5e-6;
  m.ct[1] = 2e-6;
  m.ct[2] = 4e-6;
  m.intercept = 1e-4;
  return m;
}

std::vector<const QueryGraph*> Pointers(const Workload& w) {
  std::vector<const QueryGraph*> qs;
  qs.reserve(w.queries.size());
  for (const QueryGraph& q : w.queries) qs.push_back(&q);
  return qs;
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

// ---------------------------------------------------------------------------
// Determinism: a pool batch must be bit-identical to a serial session loop,
// on every workload shape the paper evaluates.

TEST(SessionPoolTest, CompileBatchMatchesSerialLoop) {
  for (Workload w : {LinearWorkload(), StarWorkload(), RandomWorkload(13, 42),
                     TpchWorkload()}) {
    SCOPED_TRACE(w.name);
    std::vector<const QueryGraph*> qs = Pointers(w);
    CompilationSession serial(SmallOptions());
    std::vector<StatusOr<OptimizeResult>> expected = SerialCompileBatch(serial, qs);

    SessionPool pool(4, SmallOptions());
    BatchOptimizeResult got = pool.CompileBatch(qs);
    ASSERT_EQ(got.results.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(w.labels[i]);
      ASSERT_TRUE(expected[i].ok()) << expected[i].status().ToString();
      ASSERT_TRUE(got.results[i].ok()) << got.results[i].status().ToString();
      ExpectSameOptimize(*got.results[i], *expected[i]);
    }
  }
}

TEST(SessionPoolTest, EstimateBatchMatchesSerialLoop) {
  TimeModel model = BenchModel();
  for (Workload w : {LinearWorkload(), StarWorkload(), RandomWorkload(13, 42),
                     TpchWorkload()}) {
    SCOPED_TRACE(w.name);
    std::vector<const QueryGraph*> qs = Pointers(w);
    CompilationSession serial(SmallOptions());
    std::vector<CompileTimeEstimate> expected = SerialEstimateBatch(serial, qs, model);

    SessionPool pool(4, SmallOptions());
    BatchEstimateResult got = pool.EstimateBatch(qs, model);
    ASSERT_EQ(got.results.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(w.labels[i]);
      ExpectSameEstimate(got.results[i], expected[i]);
    }
  }
}

TEST(SessionPoolTest, RepeatedBatchesThroughOnePoolAreIdentical) {
  // Second batch reuses every worker's warm arenas; results must not drift.
  Workload w = RandomWorkload(13, 42);
  std::vector<const QueryGraph*> qs = Pointers(w);
  SessionPool pool(3, SmallOptions());
  BatchOptimizeResult first = pool.CompileBatch(qs);
  BatchOptimizeResult second = pool.CompileBatch(qs);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (size_t i = 0; i < first.results.size(); ++i) {
    ASSERT_TRUE(first.results[i].ok() && second.results[i].ok());
    ExpectSameOptimize(*second.results[i], *first.results[i]);
  }
}

TEST(SessionPoolTest, ColdSharedGraphAcrossWorkers) {
  // The same QueryGraph object many times in one batch, compiled by the
  // pool FIRST — so the graph's lazy adjacency / global-equivalence caches
  // are built concurrently by racing workers (QueryGraph's double-checked
  // lock makes that safe; this is the TSan-visible regression for it).
  Workload w = RandomWorkload(3, 77);
  std::vector<const QueryGraph*> qs(12, &w.queries[2]);
  SessionPool pool(4, SmallOptions());
  BatchOptimizeResult got = pool.CompileBatch(qs);

  CompilationSession serial(SmallOptions());
  StatusOr<OptimizeResult> expected = serial.Optimize(w.queries[2]);
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_TRUE(got.results[i].ok()) << got.results[i].status().ToString();
    ExpectSameOptimize(*got.results[i], *expected);
  }
}

// ---------------------------------------------------------------------------
// Stats merging and queue bookkeeping.

TEST(SessionPoolTest, BatchStatsMergeAcrossWorkers) {
  Workload w = RandomWorkload(13, 42);
  std::vector<const QueryGraph*> qs = Pointers(w);
  SessionPool pool(2, SmallOptions());
  BatchOptimizeResult r = pool.CompileBatch(qs);

  const BatchStats& st = r.stats;
  EXPECT_EQ(st.workers_used, 2);
  EXPECT_EQ(st.merged.plans_compiled, 13);
  EXPECT_EQ(st.merged.estimates_run, 0);
  // Every query is distinct, so every compile is a cold rebind.
  EXPECT_EQ(st.merged.context_rebinds, 13);
  EXPECT_EQ(st.merged.warm_resets, 0);
  EXPECT_GT(st.merged.cumulative_stages.Total(), 0.0);
  EXPECT_GT(st.wall_seconds, 0.0);
  EXPECT_GT(st.Speedup(), 0.0);

  ASSERT_EQ(st.per_worker.size(), 2u);
  int64_t claimed = 0;
  double busy = 0;
  double stage_total = 0;
  for (const WorkerSlice& slice : st.per_worker) {
    claimed += slice.queries;
    busy += slice.busy_seconds;
    stage_total += slice.stages.Total();
    // A worker's stage time happens inside its drain loop.
    EXPECT_LE(slice.stages.Total(), slice.busy_seconds);
  }
  EXPECT_EQ(claimed, 13);
  EXPECT_DOUBLE_EQ(busy, st.busy_seconds);
  // Same addends, different association (per-slice vs per-stage sums).
  EXPECT_NEAR(stage_total, st.merged.cumulative_stages.Total(), 1e-9);
}

TEST(SessionPoolTest, EstimateBatchCountsEstimates) {
  Workload w = LinearWorkload();
  std::vector<const QueryGraph*> qs = Pointers(w);
  SessionPool pool(4, SmallOptions());
  BatchEstimateResult r = pool.EstimateBatch(qs, BenchModel());
  EXPECT_EQ(r.stats.merged.estimates_run, w.size());
  EXPECT_EQ(r.stats.merged.plans_compiled, 0);
}

TEST(SessionPoolTest, WorkersNeverExceedQueries) {
  Workload w = LinearWorkload();
  std::vector<const QueryGraph*> qs = {&w.queries[0], &w.queries[1]};
  SessionPool pool(8, SmallOptions());
  EXPECT_EQ(pool.num_workers(), 8);
  BatchOptimizeResult r = pool.CompileBatch(qs);
  EXPECT_EQ(r.stats.workers_used, 2);
  EXPECT_EQ(r.stats.per_worker.size(), 2u);
}

TEST(SessionPoolTest, EmptyBatch) {
  SessionPool pool(4, SmallOptions());
  BatchOptimizeResult r = pool.CompileBatch({});
  EXPECT_TRUE(r.results.empty());
  EXPECT_EQ(r.stats.merged.plans_compiled, 0);
  EXPECT_EQ(r.stats.workers_used, 0);
  EXPECT_EQ(r.stats.wall_seconds, 0.0);
  EXPECT_EQ(r.stats.Speedup(), 0.0);
}

TEST(SessionPoolTest, ErrorsLandAtTheirIndex) {
  Workload w = LinearWorkload();
  QueryGraph empty;
  std::vector<const QueryGraph*> qs = {&w.queries[0], &empty, nullptr,
                                       &w.queries[1]};
  SessionPool pool(3, SmallOptions());
  BatchOptimizeResult r = pool.CompileBatch(qs);
  ASSERT_EQ(r.results.size(), 4u);
  EXPECT_TRUE(r.results[0].ok());
  EXPECT_FALSE(r.results[1].ok());  // no tables
  EXPECT_FALSE(r.results[2].ok());  // null pointer
  EXPECT_TRUE(r.results[3].ok());
  // The failures still leave the successes bit-identical to serial.
  CompilationSession serial(SmallOptions());
  auto sr = serial.Optimize(w.queries[1]);
  ASSERT_TRUE(sr.ok());
  ExpectSameOptimize(*r.results[3], *sr);
}

// ---------------------------------------------------------------------------
// Stress: >= 4 workers hammering a replicated workload. Repeats of the
// same graph object exercise the warm-reset path concurrently (each worker
// privately; sessions share nothing). Run under TSan by the tier-2 gate.

TEST(SessionPoolTest, StressReplicatedBatchMatchesSerial) {
  Workload w = RandomWorkload(13, 7);
  std::vector<const QueryGraph*> qs;
  for (int rep = 0; rep < 8; ++rep) {
    for (const QueryGraph& q : w.queries) qs.push_back(&q);
  }
  TimeModel model = BenchModel();
  CompilationSession serial(SmallOptions());
  std::vector<CompileTimeEstimate> expected = SerialEstimateBatch(serial, qs, model);

  SessionPool pool(4, SmallOptions());
  BatchEstimateResult got = pool.EstimateBatch(qs, model);
  ASSERT_EQ(got.results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameEstimate(got.results[i], expected[i]);
  }
  EXPECT_EQ(got.stats.merged.estimates_run,
            static_cast<int64_t>(qs.size()));
  // 8 repetitions: at least some claims repeat a graph a worker has
  // already bound — but whether a warm hit happens depends on claim
  // interleaving, so only the sum is deterministic.
  EXPECT_EQ(got.stats.merged.context_rebinds + got.stats.merged.warm_resets,
            static_cast<int64_t>(qs.size()));
}

// ---------------------------------------------------------------------------
// Shared statement cache under the pool: a hit must return the seconds
// recorded for *that* signature, never another query's (the pre-fix
// Signature collided on selectivity-only differences, which under
// concurrency turns into cross-query value leakage).

TEST(SessionPoolTest, SharedCacheCompileThroughReturnsOwnSeconds) {
  Workload w = RandomWorkload(8, 21);
  CompileTimeCache cache(/*capacity=*/64);
  for (int i = 0; i < w.size(); ++i) {
    cache.Insert(w.queries[static_cast<size_t>(i)], 100.0 + i);
  }
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &w, &mismatches, t]() {
      CompilationSession session(SmallOptions());
      for (int iter = 0; iter < 64; ++iter) {
        size_t i = static_cast<size_t>((iter * 7 + t) % w.size());
        if (t == 0 && iter % 8 == 0) {
          // One writer refreshes entries mid-stream; values stay pinned
          // to their signature.
          cache.Insert(w.queries[i], 100.0 + static_cast<double>(i));
        }
        StatusOr<double> got = cache.CompileThrough(&session, w.queries[i]);
        if (!got.ok() || *got != 100.0 + static_cast<double>(i)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), static_cast<size_t>(w.size()));
}

TEST(SessionPoolTest, SharedCacheEvictionUnderContention) {
  // Capacity smaller than the working set: Lookup / Insert / eviction race
  // on the same shards. Values cannot be asserted (each miss re-measures),
  // but every returned time must be a positive measurement and the cache
  // must respect its capacity — and TSan must stay quiet.
  Workload w = RandomWorkload(8, 33);
  CompileTimeCache cache(/*capacity=*/3);
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &w, &failures, t]() {
      CompilationSession session(SmallOptions());
      for (int iter = 0; iter < 12; ++iter) {
        size_t i = static_cast<size_t>((iter + t) % w.size());
        StatusOr<double> got = cache.CompileThrough(&session, w.queries[i]);
        if (!got.ok() || *got <= 0) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 3u);
}

}  // namespace
}  // namespace cote

#include "session/session_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/timer.h"

namespace cote {

namespace {

/// Runs once per claimed plan-mode query: the pool's per-item hot path.
/// Everything it touches is worker-private (the session) or this item's
/// own output slot, so workers never share mutable state. `limits` arms
/// the worker session's budget per query.
void CompileOne(CompilationSession* session, const QueryGraph* query,
                const ResourceLimits& limits, StatusOr<OptimizeResult>* out) {
  if (query == nullptr) {
    *out = Status::InvalidArgument("null query in batch");
    return;
  }
  *out = session->Optimize(*query, limits);
}

/// Estimate-mode twin of CompileOne; a null query yields the all-zero
/// estimate (estimates have no Status channel, matching the serial API).
void EstimateOne(CompilationSession* session, const QueryGraph* query,
                 const TimeModel& time_model, const ResourceLimits& limits,
                 CompileTimeEstimate* out) {
  if (query == nullptr) {
    *out = CompileTimeEstimate{};
    return;
  }
  *out = session->Estimate(*query, time_model, limits);
}

/// Folds worker w's CompilationStats delta for this batch (after - before)
/// into the batch stats: per-stage seconds summed into `merged`, the
/// worker's own slice filled for the breakdown.
void MergeDelta(const CompilationStats& after, const CompilationStats& before,
                BatchStats* out, int w) {
  WorkerSlice& slice = out->per_worker[static_cast<size_t>(w)];
  slice.stages.bind = after.cumulative_stages.bind - before.cumulative_stages.bind;
  slice.stages.enumerate =
      after.cumulative_stages.enumerate - before.cumulative_stages.enumerate;
  slice.stages.complete =
      after.cumulative_stages.complete - before.cumulative_stages.complete;
  slice.stages.finalize =
      after.cumulative_stages.finalize - before.cumulative_stages.finalize;
  slice.context_rebinds = after.context_rebinds - before.context_rebinds;
  slice.warm_resets = after.warm_resets - before.warm_resets;

  CompilationStats& merged = out->merged;
  // Stage seconds are timing instrumentation folded in ascending worker
  // order at the batch join (RunBatch calls MergeDelta for w = 0..n-1),
  // so the FP fold order is pinned; none of it feeds plan choice.
  // det-ok: pinned worker-order timing fold
  merged.cumulative_stages.bind += slice.stages.bind;
  // det-ok: pinned worker-order timing fold
  merged.cumulative_stages.enumerate += slice.stages.enumerate;
  // det-ok: pinned worker-order timing fold
  merged.cumulative_stages.complete += slice.stages.complete;
  // det-ok: pinned worker-order timing fold
  merged.cumulative_stages.finalize += slice.stages.finalize;
  merged.plans_compiled += after.plans_compiled - before.plans_compiled;
  merged.estimates_run += after.estimates_run - before.estimates_run;
  merged.context_rebinds += slice.context_rebinds;
  merged.warm_resets += slice.warm_resets;
  merged.degraded_runs += after.degraded_runs - before.degraded_runs;
}

}  // namespace

SessionPool::SessionPool(int num_workers, OptimizerOptions options) {
  if (num_workers <= 0) {
    num_workers = static_cast<int>(std::thread::hardware_concurrency());
    if (num_workers <= 0) num_workers = 1;
  }
  sessions_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    sessions_.push_back(
        std::make_unique<CompilationSession>(options));
  }
}

SessionPool::~SessionPool() = default;

template <typename PerItem>
BatchStats SessionPool::RunBatch(size_t n, const PerItem& per_item) {
  BatchStats out;
  // An empty batch does no work at all: zero workers, zero wall clock,
  // Speedup() deterministically 0.
  if (n == 0) return out;
  // Never more workers than items: an idle thread would only add spawn
  // and join latency to the wall clock.
  const size_t workers = std::min(sessions_.size(), n);
  out.workers_used = static_cast<int>(workers);
  out.per_worker.resize(workers);
  std::vector<CompilationStats> before(workers);
  for (size_t w = 0; w < workers; ++w) before[w] = sessions_[w]->stats();

  // Chunked atomic cursor, chunk = 1: queries are coarse work units, so
  // one relaxed fetch_add per query is the whole queue protocol and load
  // balance is as fine as it can get. This local is the pool's only
  // shared mutable word per batch (tools/sync_inventory.json).
  std::atomic<size_t> cursor{0};
  StopWatch wall;  // det-ok: wall-clock instrumentation for BatchStats
  auto drain = [&](int w) {
    StopWatch busy;  // det-ok: per-worker busy-time instrumentation
    CompilationSession* session = sessions_[static_cast<size_t>(w)].get();
    int64_t done = 0;
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      per_item(session, i);
      ++done;
    }
    WorkerSlice& slice = out.per_worker[static_cast<size_t>(w)];
    slice.worker = w;
    slice.queries = done;
    slice.busy_seconds = busy.ElapsedSeconds();
  };
  if (workers == 1) {
    // Serial batch: run on the calling thread, no spawn/join overhead —
    // the N=1 baseline the speedup figures compare against.
    drain(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back(drain, static_cast<int>(w));
    }
    for (std::thread& t : threads) t.join();
  }
  out.wall_seconds = wall.ElapsedSeconds();
  for (size_t w = 0; w < workers; ++w) {
    MergeDelta(sessions_[w]->stats(), before[w], &out, static_cast<int>(w));
    // det-ok: ascending-worker-order fold of timing instrumentation
    out.busy_seconds += out.per_worker[w].busy_seconds;
  }
  return out;
}

BatchOptimizeResult SessionPool::CompileBatch(
    const std::vector<const QueryGraph*>& queries,
    const ResourceLimits& limits) {
  BatchOptimizeResult out{
      std::vector<StatusOr<OptimizeResult>>(
          queries.size(), Status::Internal("query was not compiled")),
      BatchStats{}};
  StatusOr<OptimizeResult>* results = out.results.data();
  const QueryGraph* const* qs = queries.data();
  out.stats =
      RunBatch(queries.size(),
               [results, qs, &limits](CompilationSession* session, size_t i) {
                 CompileOne(session, qs[i], limits, &results[i]);
               });
  return out;
}

BatchEstimateResult SessionPool::EstimateBatch(
    const std::vector<const QueryGraph*>& queries,
    const TimeModel& time_model, const ResourceLimits& limits) {
  BatchEstimateResult out;
  out.results.resize(queries.size());
  CompileTimeEstimate* results = out.results.data();
  const QueryGraph* const* qs = queries.data();
  out.stats = RunBatch(queries.size(),
                       [results, qs, &time_model, &limits](
                           CompilationSession* session, size_t i) {
                         EstimateOne(session, qs[i], time_model, limits,
                                     &results[i]);
                       });
  return out;
}

}  // namespace cote

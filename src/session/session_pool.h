#ifndef COTE_SESSION_SESSION_POOL_H_
#define COTE_SESSION_SESSION_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/time_model.h"
#include "query/query_graph.h"
#include "session/compilation_stats.h"
#include "session/session.h"

namespace cote {

/// One worker's share of a batch: how much of the queue it drained and
/// what its session spent per stage while doing so.
struct WorkerSlice {
  int worker = 0;
  int64_t queries = 0;
  /// Wall time this worker spent inside its drain loop (claiming and
  /// compiling); Σ busy_seconds / wall_seconds is the achieved speedup.
  double busy_seconds = 0;
  /// Per-stage seconds this worker's session accumulated over the batch.
  StageSeconds stages;
  int64_t context_rebinds = 0;
  int64_t warm_resets = 0;
};

/// \brief Merged instrumentation of one batch across all workers.
///
/// `merged` is the element-wise sum of every worker session's
/// CompilationStats delta for this batch — per-stage StageSeconds summed,
/// compiles/estimates/rebind counters added — so it reads exactly like
/// the stats of one serial session that did all the work.
struct BatchStats {
  CompilationStats merged;
  /// Wall clock of the whole batch, queue setup to last join.
  double wall_seconds = 0;
  /// Σ per-worker busy seconds: the serial-equivalent work time.
  double busy_seconds = 0;
  int workers_used = 0;
  std::vector<WorkerSlice> per_worker;

  /// Achieved wall-clock speedup over running the same work on one
  /// thread: busy / wall. 0 when the batch was empty.
  double Speedup() const {
    return wall_seconds > 0 ? busy_seconds / wall_seconds : 0;
  }
};

/// Plan-mode batch result: per-query results in input order (a failed
/// query carries its Status at its own index; the rest are unaffected).
struct BatchOptimizeResult {
  std::vector<StatusOr<OptimizeResult>> results;
  BatchStats stats;
};

/// Estimate-mode batch result, input order.
struct BatchEstimateResult {
  std::vector<CompileTimeEstimate> results;
  BatchStats stats;
};

/// \brief A fixed pool of CompilationSessions compiling batches
/// concurrently.
///
///   SessionPool pool(/*num_workers=*/8, options);
///   BatchOptimizeResult r = pool.CompileBatch(queries);   // input order
///   BatchEstimateResult e = pool.EstimateBatch(queries, time_model);
///
/// Queue discipline: a chunked atomic cursor over the input vector. Each
/// worker claims the next unclaimed index with one relaxed fetch_add and
/// compiles it through its own session; queries are coarse work units
/// (microseconds to seconds each), so cursor contention is negligible and
/// no stealing structure is needed. Results land at their input index —
/// distinct elements of a pre-sized vector, so workers never touch the
/// same memory.
///
/// Determinism: each query's compilation depends only on the session
/// options (identical across the pool, normalized once) and the query
/// itself — per-session arenas mean zero shared mutable state — so which
/// worker claims which query cannot change any result. A pool batch is
/// bit-identical to a serial CompilationSession loop over the same
/// vector (tests/common/serial_batch.h; pinned by
/// tests/session/session_pool_test.cc on the linear, star, random and
/// TPC-H workloads).
///
/// The pool keeps its sessions across batches, so repeated batches reuse
/// warm arenas exactly like a long-lived serial session does. The pool
/// itself is not re-entrant: issue one batch at a time.
class SessionPool {
 public:
  /// `num_workers <= 0` selects std::thread::hardware_concurrency().
  explicit SessionPool(int num_workers, OptimizerOptions options = {});
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Plan-compiles the batch; results in input order. A null pointer or a
  /// failing query yields a Status at its index. `limits` applies per
  /// query (each compile re-arms its worker's budget), so a runaway query
  /// degrades or fails at its own index while every other result is
  /// bit-identical to the ungoverned batch — per-index isolation under
  /// concurrency.
  BatchOptimizeResult CompileBatch(
      const std::vector<const QueryGraph*>& queries,
      const ResourceLimits& limits = {});

  /// Estimate-compiles the batch (§3 mode); results in input order. Null
  /// pointers yield a default (all-zero) estimate; under finite `limits`
  /// a tripped query comes back flagged degraded at its index.
  BatchEstimateResult EstimateBatch(
      const std::vector<const QueryGraph*>& queries,
      const TimeModel& time_model, const ResourceLimits& limits = {});

  int num_workers() const { return static_cast<int>(sessions_.size()); }

  /// Worker w's session, for inspection between batches (e.g. cumulative
  /// lifetime stats). Do not drive it while a batch is running.
  CompilationSession& session(int worker) { return *sessions_[worker]; }

 private:
  /// Spawns up to `n` workers draining the cursor through `per_item` and
  /// merges the per-session stats deltas. PerItem is
  /// void(CompilationSession*, size_t index), called exactly once per
  /// index in [0, n).
  template <typename PerItem>
  BatchStats RunBatch(size_t n, const PerItem& per_item);

  std::vector<std::unique_ptr<CompilationSession>> sessions_;
};

}  // namespace cote

#endif  // COTE_SESSION_SESSION_POOL_H_

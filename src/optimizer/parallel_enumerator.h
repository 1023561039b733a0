#ifndef COTE_OPTIMIZER_PARALLEL_ENUMERATOR_H_
#define COTE_OPTIMIZER_PARALLEL_ENUMERATOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/resource_budget.h"
#include "common/worker_team.h"
#include "optimizer/enumerator.h"
#include "query/query_graph.h"

namespace cote {

/// \brief One parallel enumeration run's outcome.
struct ParallelEnumerationResult {
  /// Merged counters across all workers; bit-identical to a serial run
  /// when the run completes untripped.
  EnumerationStats stats;
  /// Σ over workers of in-rank busy wall time (rank-1 initialization and
  /// mask-slice processing; excludes dispatch and merges). On a single
  /// hardware thread this approaches — never reaches — the run's wall
  /// time, which is why the bench reports both (the gap is the merge +
  /// dispatch overhead; real speedup needs real cores).
  double busy_seconds = 0;
  int workers = 1;
};

/// \brief The driver's view of a sharded visitor.
///
/// One JoinVisitor per worker, each writing only worker-private state
/// during a rank, plus a coordinator-side merge that adopts everything
/// the shards created — called at every rank barrier, in worker order.
/// Worker slices are contiguous in ascending mask order, so merging in
/// worker order replays the serial creation order exactly.
class ShardedVisitor {
 public:
  virtual ~ShardedVisitor() = default;
  /// Worker w's private visitor (stable across the run).
  virtual JoinVisitor* Shard(int worker) = 0;
  /// Attaches/detaches worker w's private budget: everything the shard
  /// charges (plans, in particular) must land on this budget, never on a
  /// shared one. Called with nullptr at the end of every run.
  virtual void SetShardBudget(int worker, ResourceBudget* budget) = 0;
  /// Coordinator-side rank barrier: adopt all shard-created state, in
  /// worker order. Runs single-threaded.
  virtual void MergeRank() = 0;
};

/// \brief Rank-parallel bottom-up join enumerator.
///
/// Runs the same DP as JoinEnumerator, but partitions each popcount
/// rank's Gosper-ordered mask sequence across a persistent worker team
/// (gosper_partition.h). The shared existence bitmap is written only for
/// rank-k masks during rank k (workers own disjoint mask slices) and read
/// only for lower ranks, so in-rank accesses are race-free by
/// construction; the team's dispatch mutex provides the cross-rank
/// happens-before. All other mutable state is worker-private (the
/// ShardedVisitor contract) and merged at rank barriers.
///
/// Governance: each worker checks a private ResourceBudget, armed from
/// the master's limits at run start, once per mask; a trip raises the
/// shared cancel flag, which every worker polls per mask — so a deadline
/// or cap trip in one shard unwinds the whole team within one mask per
/// worker. Charge deltas are folded into the master budget at every rank
/// barrier (count caps therefore trip globally at rank granularity, or
/// mid-rank when a single shard alone exceeds them).
class ParallelEnumerator {
 public:
  explicit ParallelEnumerator(int workers);

  int workers() const { return workers_; }

  /// Runs the full enumeration; requires
  /// graph.num_tables() <= kGosperPartitionMaxTables (the caller gates).
  /// `budget` may be null or disarmed (ungoverned run).
  ParallelEnumerationResult Run(const QueryGraph& graph,
                                const EnumeratorOptions& options,
                                ShardedVisitor* sharded,
                                ResourceBudget* budget);

 private:
  struct WorkerSlot {
    std::vector<int> preds;
    EnumerationStats stats;
    double busy_seconds = 0;
    // Previous-rank budget counter snapshots, for delta folding.
    int64_t prev_entries = 0;
    int64_t prev_plans = 0;
    int64_t prev_checkpoints = 0;
  };

  static void RankThunk(void* ctx, int worker);
  /// Hot loop: one worker's slice of the current rank, each mask through
  /// the shared DP step (dp_step.h).
  void RunRankSlice(int worker);
  /// Folds every worker budget's per-rank charge delta into `master`.
  void FoldBudgets(ResourceBudget* master);

  const int workers_;
  WorkerTeam team_;
  std::vector<uint8_t> exists_;
  std::deque<ResourceBudget> budgets_;  // non-copyable; deque for stability
  std::deque<WorkerSlot> slots_;
  // The one shared flag of a run (tools/sync_inventory.json): workers
  // poll it per mask, any tripped shard sets it; relaxed order suffices
  // because the rank barrier provides the cross-thread edges.
  std::atomic<bool> cancel_{false};
  // Current-rank dispatch state: written by the coordinator before each
  // team round, read by workers during it (ordered by the team's mutex).
  const QueryGraph* rank_graph_ = nullptr;
  const EnumeratorOptions* rank_options_ = nullptr;
  ShardedVisitor* rank_sharded_ = nullptr;
  int rank_n_ = 0;
  int rank_k_ = 0;
  bool rank_armed_ = false;
};

}  // namespace cote

#endif  // COTE_OPTIMIZER_PARALLEL_ENUMERATOR_H_

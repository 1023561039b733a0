#include "optimizer/parallel_enumerator.h"

#include "common/check.h"
#include "common/timer.h"
#include "optimizer/dp_step.h"
#include "optimizer/gosper_partition.h"

namespace cote {

ParallelEnumerator::ParallelEnumerator(int workers)
    : workers_(workers), team_(workers) {
  COTE_CHECK(workers >= 1);
  for (int w = 0; w < workers_; ++w) {
    budgets_.emplace_back();
    slots_.emplace_back();
  }
}

void ParallelEnumerator::RankThunk(void* ctx, int worker) {
  static_cast<ParallelEnumerator*>(ctx)->RunRankSlice(worker);
}

void ParallelEnumerator::RunRankSlice(int worker) {
  const GosperSlice slice =
      PartitionGosperRank(rank_n_, rank_k_, worker, workers_);
  if (slice.count == 0) return;
  StopWatch watch;  // det-ok: busy-time instrumentation, never feeds plans
  WorkerSlot& slot = slots_[worker];
  ResourceBudget* budget = rank_armed_ ? &budgets_[worker] : nullptr;
  const DpRun run{*rank_graph_, *rank_options_, rank_sharded_->Shard(worker),
                  budget, slot.preds, slot.stats};
  // Lower-rank reads of the shared bitmap: complete and immutable during
  // this rank (rank-k writes touch only rank-k bytes, each in the slice of
  // the worker that owns its mask).
  auto sides = [this](uint64_t sub, uint64_t rest) {
    return exists_[sub] != 0 && exists_[rest] != 0;
  };
  auto insert = [this](uint64_t bits) { exists_[bits] = 1; };

  // The serial enumerator's mask step, over this worker's contiguous
  // Gosper slice instead of the whole rank, with the cancel flag polled
  // once per mask and charges going to the private worker budget.
  uint64_t mask = slice.first_mask;
  int64_t remaining = slice.count;
  while (true) {
    if (cancel_.load(std::memory_order_relaxed)) break;
    if (budget != nullptr && budget->Checkpoint()) {
      // Cooperative team unwind: every other worker stops at its next
      // mask poll, so the overshoot is at most one mask per worker.
      cancel_.store(true, std::memory_order_relaxed);
      break;
    }
    JoinMask(run, mask, sides, insert);

    if (--remaining == 0) break;
    const uint64_t low = LowestBit(mask);
    const uint64_t carry = mask + low;
    mask = carry | (((mask ^ carry) >> 2) / low);
  }
  slot.busy_seconds += watch.ElapsedSeconds();
}

void ParallelEnumerator::FoldBudgets(ResourceBudget* master) {
  if (master == nullptr || !master->armed()) return;
  for (int w = 0; w < workers_; ++w) {
    ResourceBudget& b = budgets_[w];
    WorkerSlot& slot = slots_[w];
    master->FoldShardCharges(b.entries_charged() - slot.prev_entries,
                             b.plans_charged() - slot.prev_plans,
                             b.checkpoints() - slot.prev_checkpoints,
                             b.tripped_limit());
    slot.prev_entries = b.entries_charged();
    slot.prev_plans = b.plans_charged();
    slot.prev_checkpoints = b.checkpoints();
  }
}

ParallelEnumerationResult ParallelEnumerator::Run(
    const QueryGraph& graph, const EnumeratorOptions& options,
    ShardedVisitor* sharded, ResourceBudget* budget) {
  COTE_CHECK(sharded != nullptr);
  const int n = graph.num_tables();
  COTE_CHECK(n >= 1 && n <= kGosperPartitionMaxTables);

  ParallelEnumerationResult result;
  result.workers = workers_;
  // assign() reuses capacity, as in the serial enumerator's flat path.
  exists_.assign(size_t{1} << n, 0);
  cancel_.store(false, std::memory_order_relaxed);
  const bool governed = budget != nullptr && budget->armed();
  rank_armed_ = governed;
  for (int w = 0; w < workers_; ++w) {
    WorkerSlot& slot = slots_[w];
    slot.stats = EnumerationStats{};
    slot.busy_seconds = 0;
    slot.prev_entries = 0;
    slot.prev_plans = 0;
    slot.prev_checkpoints = 0;
    // Worker deadlines start here rather than at the master's Arm() — a
    // few microseconds of extra allowance, bounded by this call's prefix.
    if (governed) {
      budgets_[w].Arm(budget->limits());
    } else {
      budgets_[w].Disarm();
    }
    sharded->SetShardBudget(w, governed ? &budgets_[w] : nullptr);
  }
  rank_graph_ = &graph;
  rank_options_ = &options;
  rank_sharded_ = sharded;
  rank_n_ = n;

  // ---- Rank 1: singleton entries, inline on the coordinator through
  // shard 0 (the serial enumerator's base-table step; no checkpoints).
  {
    StopWatch watch;  // det-ok: busy-time instrumentation only
    WorkerSlot& slot0 = slots_[0];
    AddBaseEntries(DpRun{graph, options, sharded->Shard(0),
                         governed ? &budgets_[0] : nullptr, slot0.preds,
                         slot0.stats},
                   [this](uint64_t bits) { exists_[bits] = 1; });
    // det-ok: coordinator-only timing accumulation, not plan-visible
    slot0.busy_seconds += watch.ElapsedSeconds();
  }
  sharded->MergeRank();
  FoldBudgets(budget);

  // ---- Ranks 2..n: dispatch slices, then merge at the barrier. The
  // merge runs even on a cancelled rank so partial shard state (counts,
  // created entries) is adopted before the caller sees the memo/counter.
  if (!(governed && budget->tripped())) {
    for (int k = 2; k <= n; ++k) {
      rank_k_ = k;
      team_.Run(&ParallelEnumerator::RankThunk, this);
      sharded->MergeRank();
      FoldBudgets(budget);
      if ((governed && budget->tripped()) ||
          cancel_.load(std::memory_order_relaxed)) {
        break;
      }
    }
  }

  for (int w = 0; w < workers_; ++w) {
    sharded->SetShardBudget(w, nullptr);
    result.stats.joins_unordered += slots_[w].stats.joins_unordered;
    result.stats.joins_ordered += slots_[w].stats.joins_ordered;
    result.stats.entries_created += slots_[w].stats.entries_created;
    // det-ok: ascending-worker-order fold of timing instrumentation
    result.busy_seconds += slots_[w].busy_seconds;
  }
  return result;
}

}  // namespace cote

#ifndef COTE_OPTIMIZER_MEMO_H_
#define COTE_OPTIMIZER_MEMO_H_

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_set_index.h"
#include "common/resource_budget.h"
#include "common/table_set.h"
#include "common/timer.h"
#include "optimizer/plan/plan.h"
#include "optimizer/properties/entry_equivalence.h"
#include "optimizer/properties/interesting_orders.h"
#include "query/column_ids.h"
#include "query/query_graph.h"

namespace cote {

/// \brief One MEMO entry: all non-pruned plans for a set of tables.
///
/// Besides the plan list, the entry caches the *logical* properties of the
/// expression: output cardinality, the column-equivalence relation induced
/// by the predicates applied inside the set, and the interesting orders
/// active there (computed once per entry — the paper's "property caching",
/// §3.2).
class MemoEntry {
 public:
  /// Arena-construction path (used by Memo through the deque allocator,
  /// hence public): `ids` is the memo's column-id table and `pred_scratch`
  /// a reusable buffer for the internal-predicate gather.
  MemoEntry(TableSet set, const QueryGraph& graph, const ColumnIds& ids,
            std::vector<int>* pred_scratch);

  TableSet set() const { return set_; }
  const EntryEquivalence& equivalence() const { return equiv_; }
  /// Caches the interests of `interesting` active in this entry, canonical
  /// in its equivalence (the plan generator does this as it initializes
  /// the entry).
  void BuildInterests(const InterestingOrders& interesting) {
    equiv_.BuildInterests(interesting, set_);
  }

  bool outer_enabled() const { return outer_enabled_; }

  /// Cached output cardinality; negative until set by the visitor.
  double cardinality() const { return cardinality_; }
  void set_cardinality(double c) { cardinality_ = c; }
  /// Writable cache slot for MemoizedJoinRows (negative = not computed).
  double* mutable_cardinality() { return &cardinality_; }

  const std::vector<const Plan*>& plans() const { return plans_; }

  /// Cheapest plan regardless of properties; nullptr if empty.
  const Plan* Cheapest() const;

  /// Cheapest plan whose order prefix-satisfies `required_order` (pass
  /// None() for "don't care") and whose partition satisfies
  /// `required_partition`. nullptr if none qualifies.
  const Plan* CheapestSatisfying(const OrderProperty& required_order,
                                 const PartitionProperty& required_partition)
      const;

 private:
  friend class Memo;

  TableSet set_;
  double cardinality_ = -1;
  bool outer_enabled_ = true;
  EntryEquivalence equiv_;
  std::vector<const Plan*> plans_;
};

/// \brief The dynamic-programming MEMO structure (§2.1).
///
/// Owns all plans in an arena (stable pointers). Insertion applies
/// cost+property pruning: a plan is dominated by a cheaper-or-equal plan
/// whose order and partition are at least as general. The "plan saving"
/// time the paper's Figure 2 charges at 16% is exactly the time spent in
/// Insert(), which callers may measure via the save timer.
///
/// Entry lookup is flat (FlatSetIndex): for queries of up to 20 tables
/// the table-set mask indexes a dense int32 array directly, so the
/// Find() on the enumeration hot path is one load; entries themselves are
/// arena-allocated in a deque (stable pointers, no per-entry heap
/// allocation).
///
/// A Memo is either a serial MEMO or, under the rank-parallel enumerator,
/// one worker's shard of a parent MEMO (see shard()).
class Memo {
 public:
  explicit Memo(const QueryGraph& graph) : graph_(graph) {}
  ~Memo();
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// Finds or creates the entry for `s`; `created` reports which happened.
  MemoEntry* GetOrCreate(TableSet s, bool* created = nullptr);
  MemoEntry* Find(TableSet s);
  const MemoEntry* Find(TableSet s) const;

  /// Allocates a plan node from the arena (counted as "generated");
  /// charges an attached budget.
  Plan* NewPlan();

  /// Attaches a resource budget charged one plan per NewPlan() call
  /// (plans *generated*, the paper's Figure 5 quantity — pruning happens
  /// after generation, so stored-plan counts would undercharge). Null
  /// detaches. The pipeline must detach before handing the memo to a
  /// result, because results outlive the budget.
  void set_budget(ResourceBudget* budget) { budget_ = budget; }

  /// Inserts with pruning; returns true if the plan survived.
  bool Insert(MemoEntry* entry, Plan* plan);

  int64_t num_entries() const {
    return static_cast<int64_t>(creation_order_.size());
  }
  int64_t plans_allocated() const { return plans_allocated_; }
  int64_t plans_stored() const;

  /// Actual bytes held by MEMO plan lists (stored plans only) — the
  /// quantity the §6.2 memory estimator lower-bounds.
  int64_t ApproxMemoryBytes() const;

  /// Iteration over entries (deterministic order of creation).
  const std::vector<MemoEntry*>& entries_in_order() const {
    return creation_order_;
  }

  // ---- Parallel enumeration support ---------------------------------
  //
  // During one popcount rank, each worker fills a private shard: a Memo
  // in shard mode, with its own entry/plan arenas and budget and no
  // shared mutable state. A shard resolves lower-rank sets read-only
  // through its parent (complete up to rank k-1 at every point inside
  // rank k, the rank barrier's invariant) and serves the one entry it is
  // filling — the last it created; a worker only ever touches its own
  // current mask within a rank. Its creation order is the rank's
  // adoption log: at the rank barrier the coordinator calls
  // AdoptShardRank(), which splices every shard-created entry into this
  // memo's index and creation order, in shard order. Worker slices are
  // contiguous in ascending mask order (gosper_partition.h), so adoption
  // in shard order replays the exact serial creation order — dense ids,
  // entry iteration order, and plan lists all come out bit-identical to a
  // serial run.

  /// Creates (or tops up to) `count` shards. Shards — and everything they
  /// allocate — are owned by this memo, so merged entries and plans share
  /// the memo's lifetime.
  void PrepareShards(int count);
  Memo* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  /// Adopts everything the shards created since the previous adoption and
  /// folds their plans_allocated counts. Caller-side (single-threaded)
  /// half of the rank barrier.
  void AdoptShardRank();

 private:
  /// The set index is sized from graph_.num_tables(), so it is built on
  /// first use rather than at construction (callers may construct the
  /// Memo before the graph is final). A shard never builds one.
  FlatSetIndex& Index() const;
  /// The column ids every entry's equivalence is indexed by: built on
  /// first use like the index; a shard reads its parent's, which
  /// PrepareShards builds before any worker runs.
  const ColumnIds& Ids() const;

  const QueryGraph& graph_;
  mutable std::optional<FlatSetIndex> index_;
  mutable std::optional<ColumnIds> ids_;
  std::deque<MemoEntry> entry_arena_;
  std::vector<MemoEntry*> creation_order_;
  std::deque<Plan> arena_;
  std::vector<int> pred_scratch_;
  int64_t plans_allocated_ = 0;
  /// Optional governance; never owned, cleared by the pipeline before the
  /// memo escapes into an OptimizeResult.
  ResourceBudget* budget_ = nullptr;
  /// Shard mode: the memo lookups fall back to (null: a serial memo).
  const Memo* parent_ = nullptr;
  /// Parallel-enumeration shards (empty on the serial path).
  std::vector<std::unique_ptr<Memo>> shards_;
};

}  // namespace cote

#endif  // COTE_OPTIMIZER_MEMO_H_

#ifndef COTE_OPTIMIZER_PLAN_GENERATOR_H_
#define COTE_OPTIMIZER_PLAN_GENERATOR_H_

#include <limits>
#include <span>
#include <vector>

#include "common/timer.h"
#include "optimizer/cost/cardinality.h"
#include "optimizer/cost/cost_model.h"
#include "optimizer/enumerator.h"
#include "optimizer/memo.h"
#include "optimizer/properties/interesting_orders.h"
#include "optimizer/stats.h"

namespace cote {

/// \brief Knobs of normal-mode plan generation.
struct PlanGenOptions {
  /// Shared-nothing planning: base tables carry their catalog partitioning,
  /// joins require co-location or generate repartition/broadcast enforcers.
  bool parallel = false;

  /// Eager order policy (DB2's choice, §4 item 1): SORT enforcers are
  /// generated for interesting orders that do not arise naturally.
  bool eager_orders = true;

  /// Eager partition policy (ablation of §4's lazy choice): repartition
  /// enforcers materialize every interesting partition (join columns) at
  /// the base tables, making the search space insensitive to how data is
  /// initially partitioned — at the price of generating more plans.
  bool eager_partitions = false;

  /// Pilot-pass pruning (§6.1): discard any generated plan whose cost
  /// exceeds `pilot_cost` (typically the cost of a quick greedy plan).
  bool pilot_pass = false;
  double pilot_cost = std::numeric_limits<double>::infinity();

  /// Reproduces the DB2 "implementation oversight" of §5.2 that generated
  /// redundant NLJN plans (an extra index-inner NLJN per outer plan).
  bool redundant_nljn_inner = false;
};

/// \brief Normal-mode join visitor: generates and costs physical plans.
///
/// Installed behind the enumerator's thin interface. For every enumerated
/// join it generates NLJN / MGJN / HSJN plans, propagating the order
/// property per Table 2 (NLJN full, MGJN partial via the join columns plus
/// coverage, HSJN none) and the partition property fully, inserting
/// enforcers (SORT, Repartition, Replicate) where required. Each
/// generation path and each MEMO insertion is timed so compilation time
/// can be attributed per join method (Figure 2) and regressed into the
/// per-plan-type coefficients Ct (§3.5).
///
/// Under the rank-parallel enumerator each worker runs its own generator
/// over a shard-mode Memo (Memo::shard), so serial and parallel runs
/// generate through the same code.
class PlanGenerator : public JoinVisitor {
 public:
  PlanGenerator(const QueryGraph& graph, Memo* memo,
                const CostModel& cost_model,
                const CardinalityModel& cardinality,
                const InterestingOrders& interesting,
                const PlanGenOptions& options);

  // JoinVisitor interface -----------------------------------------------
  void InitializeEntry(TableSet s) override;
  double EntryCardinality(TableSet s) override;
  void OnJoin(TableSet outer, TableSet inner,
              const std::vector<int>& pred_indices, bool cartesian) override;

  /// Adds this generator's plan counters and timers to `stats` (a parallel
  /// run folds every worker's, in worker order). Returns the seconds spent
  /// in visitor callbacks, which the caller subtracts from the run's total.
  double AddStatsTo(OptimizeStats* stats) const;

 private:
  /// One merge join's columns, oriented per side.
  struct MergeCandidate {
    OrderProperty outer_cols;
    OrderProperty inner_cols;
  };

  /// Inserts with optional pilot-pass pruning; times as plan saving.
  bool SavePlan(MemoEntry* entry, Plan* plan);

  /// `order` canonical in entry `j`, collapsed to DC once retired there
  /// (RetainOrder).
  OrderProperty OutputOrder(const OrderProperty& order, const MemoEntry& j)
      const;

  /// Cheapest plan of `e` satisfying the given order (canonical in `e`)
  /// and partition, adding SORT / Repartition enforcers on top of the
  /// cheapest plan when nothing qualifies naturally. May return nullptr
  /// only if the entry has no plans at all.
  const Plan* InputPlan(MemoEntry* e, const OrderProperty& order,
                        const PartitionProperty& partition);

  /// A replicated version of e's cheapest plan (natural or enforced).
  const Plan* ReplicatedInput(MemoEntry* e);

  void GenerateNljn(MemoEntry* s, MemoEntry* l, MemoEntry* j,
                    const std::vector<int>& preds);

  /// The inner-side index-scan plan usable for index nested-loops on this
  /// join (inner is a single base table owning an index whose leading key
  /// column is a join column; in parallel mode, the probed plan must be
  /// co-located on `jcols` or replicated), or nullptr.
  const Plan* IndexProbeInner(const MemoEntry& l, const MemoEntry& j,
                              const std::vector<int>& preds,
                              std::span<const ColumnRef> jcols) const;
  void GenerateMgjn(MemoEntry* s, MemoEntry* l, MemoEntry* j,
                    const std::vector<MergeCandidate>& candidates);
  void GenerateHsjn(MemoEntry* s, MemoEntry* l, MemoEntry* j,
                    const std::vector<int>& preds);

  const QueryGraph& graph_;
  Memo* memo_;
  const CostModel& cost_;
  const CardinalityModel& card_;
  const InterestingOrders& interesting_;
  PlanGenOptions options_;

  JoinTypeCounts generated_;
  int64_t enforcers_ = 0;
  int64_t scan_plans_ = 0;
  int64_t pruned_by_pilot_ = 0;

  TimeAccumulator gen_time_[kNumJoinMethods];
  TimeAccumulator save_time_;
  TimeAccumulator init_time_;
  TimeAccumulator on_join_time_;
};

}  // namespace cote

#endif  // COTE_OPTIMIZER_PLAN_GENERATOR_H_

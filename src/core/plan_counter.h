#ifndef COTE_CORE_PLAN_COUNTER_H_
#define COTE_CORE_PLAN_COUNTER_H_

#include <deque>
#include <optional>
#include <vector>

#include "common/flat_set_index.h"
#include "optimizer/cost/cardinality.h"
#include "optimizer/enumerator.h"
#include "optimizer/plan_generator.h"
#include "optimizer/properties/entry_equivalence.h"
#include "optimizer/properties/interesting_orders.h"
#include "optimizer/properties/order_property.h"
#include "optimizer/properties/partition_property.h"
#include "optimizer/stats.h"
#include "query/column_ids.h"
#include "query/query_graph.h"

namespace cote {

/// How multiple physical property types are tracked (§3.4).
enum class MultiPropertyMode {
  /// Orthogonal properties keep separate lists; plan counts multiply the
  /// list lengths. Cheap, slightly underestimates (retired orders paired
  /// with live partitions are dropped).
  kSeparate,
  /// One compound list of (order, partition) vectors; a compound value
  /// retires only when every component does. More precise, more state.
  kCompound,
};

/// \brief Options of the plan-counting visitor. The environment it counts
/// for — parallel planning, the eager partition policy — comes from the
/// generator's own PlanGenOptions, which the counter reads directly.
struct PlanCounterOptions {
  MultiPropertyMode multi_property = MultiPropertyMode::kSeparate;

  /// §4 item 4: propagate property values only on the first join that
  /// reaches a MEMO entry (joins reaching the same entry propagate nearly
  /// identical sets). Turning this off propagates on every join (ablation).
  bool first_join_propagation_only = true;
};

/// \brief Plan-estimate mode: the paper's Table 3 algorithm.
///
/// A JoinVisitor that *counts* the join plans the normal-mode generator
/// would create, without generating any plan or estimating any execution
/// cost. Per MEMO entry it accumulates interesting property value lists
/// bottom-up (initialize()); per enumerated join it propagates the lists
/// and accumulates per-join-method plan counts (accumulate_plans()):
///
///  * NLJN (full order propagation): plans = |outer order list| + 1 (DC),
///    times the partition multiplier in parallel mode;
///  * MGJN (partial): plans = |listp ∪ listc| — the propagatable merge
///    orders plus their coverage (subsuming orders, §4 item 2), times the
///    partition multiplier;
///  * HSJN (none): one plan per co-location alternative.
///
/// The rules it shares with the generator live in properties/join_rules.h.
///
/// Cardinality uses the *simple* model (no key refinement), as in the
/// paper's prototype — which can flip the Cartesian-product heuristic and
/// cause the small join-count deviations analysed in §5.2.
class PlanCounter : public JoinVisitor {
 public:
  /// `plangen` is the plan-generation configuration whose plans are
  /// counted; only its `parallel` and `eager_partitions` apply.
  PlanCounter(const QueryGraph& graph, const InterestingOrders& interesting,
              const CardinalityModel& cardinality,
              const PlanGenOptions& plangen,
              const PlanCounterOptions& options = {});

  // JoinVisitor interface -------------------------------------------------
  void InitializeEntry(TableSet s) override;
  double EntryCardinality(TableSet s) override;
  void OnJoin(TableSet outer, TableSet inner,
              const std::vector<int>& pred_indices, bool cartesian) override;

  // Results ----------------------------------------------------------------
  const JoinTypeCounts& estimated_plans() const { return estimated_; }

  /// Zeroes the per-run plan counts (entry property state is untouched).
  /// A session calls this before every estimate run so a warm re-run over
  /// saturated entry states reports exactly the fresh-run counts.
  void ResetCounts() { estimated_ = JoinTypeCounts{}; }

  /// Attaches a resource budget: every counted plan is charged against it,
  /// so a plan cap trips in estimate mode at the same semantic point as in
  /// plan mode (plans the generator *would* create). Null detaches; the
  /// budget must outlive every governed run.
  void set_budget(ResourceBudget* budget) { budget_ = budget; }

  /// Retargets the counter at another query: drops all entry state and
  /// counts, then points at the new graph/orders/cardinality. The state
  /// arena, set index, and every scratch buffer keep their storage, so a
  /// rebind to a same-or-smaller query performs only the per-entry list
  /// rebuild — the session layer's cross-query allocation-steady
  /// guarantee rests on this.
  void Rebind(const QueryGraph& graph, const InterestingOrders& interesting,
              const CardinalityModel& cardinality);

  // ---- Parallel enumeration support ---------------------------------
  //
  // In shard mode (BindShard) this counter is one worker's private view
  // of a parent counter during a parallel rank: lookups of lower-rank
  // entries resolve read-only through the parent (complete up to rank k-1
  // under the rank-barrier invariant), while the entry being filled lives
  // in the shard's own arena. The shard therefore touches no shared
  // mutable state inside a rank; at the barrier the coordinator calls
  // parent.AdoptShardRank(shard) for every shard in worker order, which
  // replays the serial dense-id creation order exactly (worker slices are
  // contiguous in ascending mask order).

  /// Puts this counter in shard mode, resolving input entries through
  /// `parent`. Pass nullptr to return to the normal (serial) mode.
  void BindShard(const PlanCounter* parent) {
    parent_ = parent;
    shard_current_bits_ = 0;
    created_masks_.clear();
  }

  /// Coordinator-side half of the rank barrier: adopts every entry state
  /// `shard` created during the rank just finished (swapping the state
  /// into this counter's arena at its serial dense id) and folds the
  /// shard's per-rank plan counts. On a warm re-estimate the target slot
  /// already exists and is simply replaced — the shard rebuilt the
  /// identical state, by the same dedupe-idempotence that makes serial
  /// warm reruns exact.
  void AdoptShardRank(PlanCounter* shard);

  /// Property-list state of one MEMO entry. Property values are inline,
  /// so clearing a list keeps its capacity for the next query bound to
  /// this arena slot.
  struct EntryState {
    /// The entry's equivalence and canonical active interests.
    EntryEquivalence equiv;
    double cardinality = -1;
    std::vector<OrderProperty> orders;
    std::vector<PartitionProperty> partitions;
    /// kCompound mode only: (order, partition) vectors; order may be None
    /// when that component has retired.
    std::vector<std::pair<OrderProperty, PartitionProperty>> compound;
    // First-join-only bookkeeping (§4 item 4): the first unordered split
    // reaching this entry is the one allowed to propagate properties.
    bool propagated = false;
    uint64_t first_outer_bits = 0;
    uint64_t first_inner_bits = 0;

    /// Returns the state to its just-constructed condition while keeping
    /// every list's storage (the equivalence keeps its own until the next
    /// Build), so a recycled arena slot rebuilds without re-growing.
    void Clear() {
      cardinality = -1;
      orders.clear();
      partitions.clear();
      compound.clear();
      propagated = false;
      first_outer_bits = 0;
      first_inner_bits = 0;
    }
  };

  const EntryState* FindState(TableSet s) const;

  /// Σ over entries of (|orders|+1) × max(1,|partitions|): the MEMO-size
  /// proxy used by the §6.2 memory estimator.
  int64_t TotalPlanSlots() const;

  int64_t num_entries() const { return static_cast<int64_t>(live_states_); }

 private:
  /// Built on first use (sized from graph_.num_tables()).
  FlatSetIndex& EntryIndex() const;
  /// The single accumulation funnel of OnJoin: adds `count` plans of
  /// `method` and charges an attached budget.
  void AddPlans(JoinMethod method, int64_t count);
  EntryState& State(TableSet s);
  /// Read-only state of a join *input* (strictly lower rank than the
  /// entry being filled): the parent's merged state in shard mode, the
  /// local state otherwise.
  const EntryState& InputState(TableSet s);
  void PropagateOrders(const EntryState& from, EntryState* to);
  void PropagatePartitions(const EntryState& from, EntryState* to);

  /// The column ids entry equivalences are indexed by: this counter's,
  /// or in shard mode the parent's (built before the parallel run).
  const ColumnIds& Ids() const {
    return parent_ != nullptr ? parent_->ids_ : ids_;
  }

  // Pointers (never null) rather than references so Rebind can retarget
  // the counter; the constructor still takes references.
  const QueryGraph* graph_;
  const InterestingOrders* interesting_;
  const CardinalityModel* card_;
  PlanGenOptions plangen_;
  PlanCounterOptions options_;
  /// Rebuilt for each bound query (storage kept).
  ColumnIds ids_;

  JoinTypeCounts estimated_;
  /// Optional governance: non-null while an estimate run is governed.
  ResourceBudget* budget_ = nullptr;
  /// Shard mode (BindShard): the parent counter input lookups fall back
  /// to. The states_ deque then serves as a per-rank arena — slots are
  /// claimed sequentially per new mask and drained by AdoptShardRank.
  const PlanCounter* parent_ = nullptr;
  /// One-slot cache key for the mask this shard is currently filling
  /// (its state is states_[live_states_ - 1]).
  uint64_t shard_current_bits_ = 0;
  /// Masks created this rank, in creation (= ascending mask) order.
  std::vector<uint64_t> created_masks_;
  /// Per-entry state lives in a deque arena (stable references across
  /// growth) addressed through the flat set index: for n <= 20 a state
  /// lookup on the enumeration hot path is one array load instead of a
  /// hash probe. After a Rebind the arena outlives the index's dense ids:
  /// `live_states_` bounds the prefix in use, and slots past it are
  /// cleared recycled capacity.
  mutable std::optional<FlatSetIndex> index_;
  std::deque<EntryState> states_;
  size_t live_states_ = 0;
  std::vector<int> pred_scratch_;
  // OnJoin's value lists (cleared per call, capacity retained): the
  // counting loop runs once per enumerated join, so freshly allocating
  // them dominated estimate-mode profiles on large star queries. Values
  // are inline, so with these a steady-state run (every entry and property
  // value already seen) touches no heap at all — the invariant
  // tests/optimizer/hotpath_alloc_test.cc locks in. jcols_ is a member
  // too: a join of two chain segments can have more canonical join
  // columns than a ColumnList holds inline, and its spill buffer is kept.
  ColumnList jcols_;
  std::vector<PartitionProperty> jparts_;
  std::vector<OrderProperty> distinct_orders_;
  std::vector<OrderProperty> listp_;
  std::vector<OrderProperty> listc_;
};

}  // namespace cote

#endif  // COTE_CORE_PLAN_COUNTER_H_

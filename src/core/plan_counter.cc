#include "core/plan_counter.h"

#include <algorithm>

#include "common/check.h"
#include "optimizer/properties/join_rules.h"

namespace cote {

PlanCounter::PlanCounter(const QueryGraph& graph,
                         const InterestingOrders& interesting,
                         const CardinalityModel& cardinality,
                         const PlanGenOptions& plangen,
                         const PlanCounterOptions& options)
    : graph_(&graph),
      interesting_(&interesting),
      card_(&cardinality),
      plangen_(plangen),
      options_(options) {
  ids_.Build(graph);
}

void PlanCounter::Rebind(const QueryGraph& graph,
                         const InterestingOrders& interesting,
                         const CardinalityModel& cardinality) {
  graph_ = &graph;
  interesting_ = &interesting;
  card_ = &cardinality;
  ids_.Build(graph);
  estimated_ = JoinTypeCounts{};
  // Recycle the arena: clear the live prefix in place (capacity retained)
  // and re-key the set index for the new table count. Slots past
  // live_states_ were already cleared by an earlier rebind.
  for (size_t i = 0; i < live_states_; ++i) states_[i].Clear();
  live_states_ = 0;
  shard_current_bits_ = 0;
  created_masks_.clear();
  if (index_.has_value()) index_->Reset(graph.num_tables());
}

FlatSetIndex& PlanCounter::EntryIndex() const {
  // hotpath-ok: lazily built once per session, then rebound in place
  if (!index_.has_value()) index_.emplace(graph_->num_tables());
  return *index_;
}

PlanCounter::EntryState& PlanCounter::State(TableSet s) {
  COTE_DCHECK(!s.empty());
  COTE_DCHECK(graph_->AllTables().ContainsAll(s));
  if (parent_ != nullptr) {
    // Shard mode: within a rank this shard only ever writes the state of
    // the mask it is currently filling, so state lookup is a one-slot
    // cache over a sequentially claimed arena — no index, no sharing.
    if (live_states_ > 0 && s.bits() == shard_current_bits_) {
      return states_[live_states_ - 1];
    }
    if (live_states_ == states_.size()) states_.emplace_back();
    EntryState& state = states_[live_states_];
    // Recycled slots hold whatever AdoptShardRank swapped out of the
    // parent (stale on a warm rerun), so always clear on claim.
    state.Clear();
    ++live_states_;
    shard_current_bits_ = s.bits();
    created_masks_.push_back(s.bits());
    return state;
  }
  bool created = false;
  const int32_t idx = EntryIndex().FindOrInsert(s.bits(), &created);
  if (created) {
    // The index hands out dense ids in insertion order, so a fresh id must
    // land exactly one past the end of the live prefix — either a recycled
    // (cleared) arena slot or a brand-new one.
    COTE_CHECK_EQ(static_cast<size_t>(idx), live_states_);
    if (live_states_ == states_.size()) states_.emplace_back();
    ++live_states_;
  }
  COTE_DCHECK_LT(static_cast<size_t>(idx), live_states_);
  return states_[idx];
}

const PlanCounter::EntryState* PlanCounter::FindState(TableSet s) const {
  const int32_t idx = EntryIndex().Find(s.bits());
  if (idx < 0) return nullptr;
  COTE_DCHECK_LT(static_cast<size_t>(idx), live_states_);
  return &states_[idx];
}

double PlanCounter::EntryCardinality(TableSet s) {
  if (parent_ != nullptr) {
    // Shard mode: the enumerator only asks about lower-rank sets, whose
    // merged parent state (when present) always has its cardinality set
    // by InitializeEntry — a pure read, safe across workers.
    const EntryState* state = parent_->FindState(s);
    if (state != nullptr && state->cardinality >= 0) return state->cardinality;
    return card_->JoinRows(s);
  }
  const int32_t idx = EntryIndex().Find(s.bits());
  if (idx >= 0) return MemoizedJoinRows(*card_, s, &states_[idx].cardinality);
  return card_->JoinRows(s);
}

const PlanCounter::EntryState& PlanCounter::InputState(TableSet s) {
  if (parent_ != nullptr) {
    const EntryState* state = parent_->FindState(s);
    COTE_DCHECK(state != nullptr);
    return *state;
  }
  return State(s);
}

void PlanCounter::AdoptShardRank(PlanCounter* shard) {
  for (size_t i = 0; i < shard->created_masks_.size(); ++i) {
    bool created = false;
    const int32_t idx =
        EntryIndex().FindOrInsert(shard->created_masks_[i], &created);
    if (created) {
      // Cold run: the adopted mask extends the dense-id space by exactly
      // one slot, in the serial creation order (State() discipline).
      COTE_CHECK_EQ(static_cast<size_t>(idx), live_states_);
      if (live_states_ == states_.size()) states_.emplace_back();
      ++live_states_;
    }
    // Warm rerun: the slot already exists and the shard rebuilt equal
    // content, so replacing it is the parallel analogue of the serial
    // warm rerun's idempotent re-push. Swap (not move) so both sides
    // keep their list capacity.
    std::swap(states_[idx], shard->states_[i]);
  }
  shard->created_masks_.clear();
  shard->live_states_ = 0;
  shard->shard_current_bits_ = 0;
  estimated_ += shard->estimated_;
  shard->estimated_ = JoinTypeCounts{};
}

namespace {

/// Appends `v` unless the list already holds it: every list push dedupes,
/// which keeps re-running enumeration over the same counter idempotent.
template <typename List, typename Value>
void PushUnique(List* list, const Value& v) {
  if (std::find(list->begin(), list->end(), v) == list->end()) {
    list->push_back(v);
  }
}

}  // namespace

void PlanCounter::InitializeEntry(TableSet s) {
  EntryState& state = State(s);
  // Logical properties, computed once per entry: the equivalence needed to
  // canonicalize and dedupe property values (§3.3: "equivalence needs to
  // be checked for each enumerated join") and the interests active here.
  state.equiv.Build(Ids(), *graph_, s, &pred_scratch_);
  state.equiv.BuildInterests(*interesting_, s);
  state.cardinality = card_->JoinRows(s);
  if (s.size() > 1) return;

  // initialize(): populate the interesting property lists of single-table
  // entries per the generation policy of each property (§3.3 / Table 3).
  //
  // Orders use the eager policy (§4 item 1): the precomputed interesting
  // orders applicable to this table seed the list.
  for (const CanonicalInterest& interest : state.equiv.interests()) {
    if (!interest.order.IsNone()) PushUnique(&state.orders, interest.order);
  }

  // Natural orders delivered by index scans also live in the MEMO when
  // they remain useful (an index order subsuming an interesting order is
  // the source of coverage plans); the eager initialization includes them.
  const int t = s.First();
  for (const Index& idx : graph_->table_ref(t).table->indexes()) {
    OrderProperty index_order;
    for (int ord : idx.key_columns) index_order.Append(ColumnRef(t, ord));
    OrderProperty canon;
    if (RetainOrder(index_order, state.equiv, &canon)) {
      PushUnique(&state.orders, canon);
    }
  }

  // Partitions use the lazy policy: only the physical partitioning of the
  // base table seeds the list (§4, parallel version). Seeding dedupes like
  // every other list push so that re-running enumeration over the same
  // counter stays idempotent (the un-guarded push was a latent bug: a
  // second run would duplicate every base-table partition value).
  if (plangen_.parallel) {
    PushUnique(&state.partitions, BasePartition(*graph_, t));
  }

  // Eager partition policy: every join column of the table seeds a hash
  // partition. Unlike the generator, which skips a target some scan
  // already satisfies (all of them, on a replicated table), the counter
  // seeds every target.
  if (plangen_.parallel && plangen_.eager_partitions) {
    for (const JoinPredicate& pred : graph_->join_predicates()) {
      const ColumnRef side = pred.SideIn(t);
      if (!side.valid()) continue;
      PushUnique(&state.partitions,
                 PartitionProperty::Hash({side}).Canonicalize(state.equiv));
    }
  }

  if (options_.multi_property == MultiPropertyMode::kCompound) {
    // Every pair shares the base partition.
    const PartitionProperty& base = plangen_.parallel &&
                                            !state.partitions.empty()
                                        ? state.partitions[0]
                                        : PartitionProperty::Serial();
    // Deduped for the same idempotence reason as the partition seeding.
    PushUnique(&state.compound, std::make_pair(OrderProperty::None(), base));
    for (const OrderProperty& o : state.orders) {
      PushUnique(&state.compound, std::make_pair(o, base));
    }
  }
}

void PlanCounter::PropagateOrders(const EntryState& from, EntryState* to) {
  for (const OrderProperty& o : from.orders) {
    // Retired by the join, or not interesting above `to`? Otherwise keep
    // it unless an equivalent property is already in the list.
    OrderProperty canon;
    if (RetainOrder(o, to->equiv, &canon)) PushUnique(&to->orders, canon);
  }
}

void PlanCounter::PropagatePartitions(const EntryState& from,
                                      EntryState* to) {
  for (const PartitionProperty& p : from.partitions) {
    PushUnique(&to->partitions, p.Canonicalize(to->equiv));
  }
}

void PlanCounter::OnJoin(TableSet outer, TableSet inner,
                         const std::vector<int>& pred_indices,
                         bool cartesian) {
  COTE_DCHECK(!outer.empty());
  COTE_DCHECK(!inner.empty());
  COTE_DCHECK(!outer.Overlaps(inner));
  const EntryState& s = InputState(outer);
  const EntryState& l = InputState(inner);
  TableSet jset = outer.Union(inner);
  EntryState& j = State(jset);

  // ---- Property propagation (bottom-up list accumulation).
  //
  // Orders propagate from the outer input (NLJN propagates its outer's
  // order; merge orders are join-column orders which retire here anyway);
  // the twin (inner, outer) emission propagates the other side. With the
  // first-join-only optimization (§4 item 4) only the first unordered
  // split propagates — later joins into the same entry contribute nearly
  // identical sets.
  bool may_propagate = true;
  if (options_.first_join_propagation_only) {
    if (!j.propagated) {
      j.propagated = true;
      j.first_outer_bits = outer.bits();
      j.first_inner_bits = inner.bits();
    } else {
      bool same_pair = (j.first_outer_bits == outer.bits() &&
                        j.first_inner_bits == inner.bits()) ||
                       (j.first_outer_bits == inner.bits() &&
                        j.first_inner_bits == outer.bits());
      may_propagate = same_pair;
    }
  }
  if (may_propagate) {
    PropagateOrders(s, &j);
    PropagateOrders(l, &j);
    if (plangen_.parallel) {
      PropagatePartitions(s, &j);
      PropagatePartitions(l, &j);
    }
    if (options_.multi_property == MultiPropertyMode::kCompound) {
      for (const EntryState* e : {&s, &l}) {
        for (const auto& [o, pt] : e->compound) {
          // A retired component collapses to DC.
          std::pair<OrderProperty, PartitionProperty> canon;
          RetainOrder(o, j.equiv, &canon.first);
          canon.second = pt.Canonicalize(j.equiv);
          PushUnique(&j.compound, canon);
        }
      }
    }
  }

  // ---- accumulate_plans(): per-join-method plan counting (Table 3).

  CanonicalJoinColumns(*graph_, pred_indices, j.equiv, &jcols_);
  // The co-location rule over the inputs' partition lists.
  const bool fresh_target = JoinPartitions(
      plangen_.parallel,
      [&s, &l](int side, const auto& fn) {
        for (const PartitionProperty& p : (side == 0 ? s : l).partitions) {
          fn(p);
        }
      },
      jcols_, j.equiv, &jparts_);
  if (fresh_target) {
    // The new partition value becomes interesting for the joined entry.
    PushUnique(&j.partitions, jparts_[0]);
  }

  // NLJN: full order propagation — one plan per outer interesting-order
  // value plus one for DC; in parallel mode, multiplied by the number of
  // co-location alternatives plus the broadcast-inner variant (§3.4: the
  // orthogonal lists multiply). Only outer-enabled inputs reach here (the
  // enumerator filters), implementing §4 item 3.
  int64_t outer_orders;
  if (options_.multi_property == MultiPropertyMode::kCompound &&
      plangen_.parallel) {
    // Distinct order components among the compound pairs (None included
    // via retired-order pairs) — compound values pair each with the same
    // partition alternatives.
    distinct_orders_.clear();
    distinct_orders_.push_back(OrderProperty::None());
    for (const auto& [o, pt] : s.compound) {
      (void)pt;
      PushUnique(&distinct_orders_, o);
    }
    outer_orders = static_cast<int64_t>(distinct_orders_.size()) - 1;
  } else {
    outer_orders = static_cast<int64_t>(s.orders.size());
  }
  // Index nested-loops variant: available when the inner input is a base
  // table with an index led by a join column (and, in parallel mode, the
  // inner is co-located or replicated) — one extra plan per outer order.
  // The generator asks the co-location question of the one plan it
  // probes; the counter, which has no plans, of the inner's partition list.
  int64_t inl_variant = 0;
  if (inner.size() == 1) {
    const int t = inner.First();
    for (const Index& idx : graph_->table_ref(t).table->indexes()) {
      if (IndexLeadsJoin(*graph_, t, idx, pred_indices)) {
        inl_variant = 1;
        break;
      }
    }
  }
  if (inl_variant == 1 && plangen_.parallel) {
    bool colocated = false;
    for (const PartitionProperty& p : l.partitions) {
      colocated |= ProbeColocated(p, jcols_, j.equiv);
    }
    if (!colocated) inl_variant = 0;
  }

  const int64_t colocation_alternatives =
      plangen_.parallel ? static_cast<int64_t>(jparts_.size()) + 1 : 1;
  AddPlans(JoinMethod::kNljn,
           (outer_orders + 1) * (colocation_alternatives + inl_variant));

  if (cartesian) return;  // no MGJN/HSJN for cross products

  // MGJN: partial propagation — listp = interesting orders from the inputs
  // matching the join columns; listc = coverage (orders subsuming a listp
  // member, §3.3/§4 item 2). Table 3 has no composite candidate: the
  // generator's extra merge on all join columns at once (joins with >= 2
  // predicates) is never counted, the whole of the star_s MGJN
  // underestimate in Figure 5.
  //
  // Both lists hold distinct j-canonical values of the inputs' orders:
  // listp_ those made of join columns only, listc_ the others that lead
  // with a join column — the only ones that can subsume a listp_ member,
  // so |listp ∪ listc| is |listp_| plus the listc_ values subsuming one.
  // An order whose canonical first column is not a join column is in
  // neither list, and is not canonicalized at all.
  listp_.clear();
  listc_.clear();
  for (const EntryState* e : {&s, &l}) {
    for (const OrderProperty& o : e->orders) {
      if (o.IsNone() || !jcols_.Contains(j.equiv.Find(o.columns()[0]))) {
        continue;
      }
      const OrderProperty canon = o.Canonicalize(j.equiv);
      // Propagatable by MGJN: every column of the order is a join column.
      bool all_join_cols = true;
      for (const ColumnRef& c : canon.columns()) {
        if (!jcols_.Contains(c)) {
          all_join_cols = false;
          break;
        }
      }
      PushUnique(all_join_cols ? &listp_ : &listc_, canon);
    }
  }
  int64_t merge_variants = static_cast<int64_t>(listp_.size());
  for (const OrderProperty& c : listc_) {
    for (const OrderProperty& p : listp_) {
      if (p.StrictlySubsumedBy(c)) {
        ++merge_variants;
        break;
      }
    }
  }
  AddPlans(JoinMethod::kMgjn,
           merge_variants * static_cast<int64_t>(jparts_.size()));

  // HSJN: no order propagation — one plan per co-location alternative,
  // plus the broadcast-inner variant in parallel mode.
  AddPlans(JoinMethod::kHsjn, static_cast<int64_t>(jparts_.size()));
  if (plangen_.parallel) {
    bool outer_all_replicated = true;
    for (const PartitionProperty& p : s.partitions) {
      if (p.kind() != PartitionProperty::Kind::kReplicated) {
        outer_all_replicated = false;
        break;
      }
    }
    if (!outer_all_replicated || s.partitions.empty()) {
      AddPlans(JoinMethod::kHsjn, 1);
    }
  }
}

void PlanCounter::AddPlans(JoinMethod method, int64_t count) {
  estimated_[method] += count;
  if (budget_ != nullptr) budget_->ChargePlans(count);
}

int64_t PlanCounter::TotalPlanSlots() const {
  int64_t total = 0;
  // Only the live prefix: slots past live_states_ are recycled capacity
  // left over from a larger query before a Rebind.
  for (size_t i = 0; i < live_states_; ++i) {
    const EntryState& state = states_[i];
    int64_t orders = static_cast<int64_t>(state.orders.size()) + 1;
    int64_t parts =
        plangen_.parallel
            ? std::max<int64_t>(1,
                                static_cast<int64_t>(state.partitions.size()))
            : 1;
    // First-rows queries keep the pipelinable property as an extra Pareto
    // dimension, roughly doubling the distinct property combinations.
    int64_t pipeline = graph_->wants_first_rows() ? 2 : 1;
    total += orders * parts * pipeline;
  }
  return total;
}

}  // namespace cote

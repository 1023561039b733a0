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
      options_(options) {}

void PlanCounter::Rebind(const QueryGraph& graph,
                         const InterestingOrders& interesting,
                         const CardinalityModel& cardinality) {
  graph_ = &graph;
  interesting_ = &interesting;
  card_ = &cardinality;
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

void PlanCounter::InitializeEntry(TableSet s) {
  EntryState& state = State(s);
  // Logical properties, computed once per entry (equivalence is needed to
  // canonicalize and dedupe property values — §3.3: "equivalence needs to
  // be checked for each enumerated join").
  AddEntryEquivalences(*graph_, s, &pred_scratch_, &state.equiv);
  state.cardinality = card_->JoinRows(s);
  if (s.size() > 1) return;

  // initialize(): populate the interesting property lists of single-table
  // entries per the generation policy of each property (§3.3 / Table 3).
  //
  // Orders use the eager policy (§4 item 1): the precomputed interesting
  // orders applicable to this table seed the list.
  interesting_->ActiveInterests(s, &active_scratch_);
  for (const OrderInterest* interest : active_scratch_) {
    interest->order.CanonicalizeInto(state.equiv, &canon_order_scratch_);
    const OrderProperty& o = canon_order_scratch_;
    if (o.IsNone()) continue;
    if (std::find(state.orders.begin(), state.orders.end(), o) ==
        state.orders.end()) {
      state.orders.push_back(o);
    }
  }

  // Natural orders delivered by index scans also live in the MEMO when
  // they remain useful (an index order subsuming an interesting order is
  // the source of coverage plans); the eager initialization includes them.
  const Table* base_table = graph_->table_ref(s.First()).table;
  for (const Index& idx : base_table->indexes()) {
    cols_scratch_.clear();
    for (int ord : idx.key_columns) cols_scratch_.emplace_back(s.First(), ord);
    raw_order_scratch_.Assign(cols_scratch_);
    if (!RetainOrder(raw_order_scratch_, s, state.equiv, *interesting_,
                     &interest_scratch_, &canon_order_scratch_)) {
      continue;
    }
    const OrderProperty& o = canon_order_scratch_;
    if (std::find(state.orders.begin(), state.orders.end(), o) ==
        state.orders.end()) {
      state.orders.push_back(o);
    }
  }

  // Partitions use the lazy policy: only the physical partitioning of the
  // base table seeds the list (§4, parallel version). Seeding dedupes like
  // every other list push so that re-running enumeration over the same
  // counter stays idempotent (the un-guarded push was a latent bug: a
  // second run would duplicate every base-table partition value).
  if (plangen_.parallel) {
    BasePartition(*graph_, s.First(), &cols_scratch_, &hash_scratch_);
    if (std::find(state.partitions.begin(), state.partitions.end(),
                  hash_scratch_) == state.partitions.end()) {
      state.partitions.push_back(hash_scratch_);
    }
  }

  // Eager partition policy: every join column of the table seeds a hash
  // partition. Unlike the generator, which skips a target some scan
  // already satisfies (all of them, on a replicated table), the counter
  // seeds every target.
  if (plangen_.parallel && plangen_.eager_partitions) {
    const int t = s.First();
    for (const JoinPredicate& pred : graph_->join_predicates()) {
      ColumnRef side = pred.SideIn(t);
      if (!side.valid()) continue;
      cols_scratch_.assign(1, side);
      hash_scratch_.AssignHash(cols_scratch_);
      hash_scratch_.CanonicalizeInto(state.equiv, &part_scratch_);
      const PartitionProperty& target = part_scratch_;
      if (std::find(state.partitions.begin(), state.partitions.end(),
                    target) == state.partitions.end()) {
        state.partitions.push_back(target);
      }
    }
  }

  if (options_.multi_property == MultiPropertyMode::kCompound) {
    // Every pair shares the base partition; copy-assigning into the
    // scratch pair keeps its buffers.
    const PartitionProperty serial;
    compound_scratch_.second = plangen_.parallel && !state.partitions.empty()
                                   ? state.partitions[0]
                                   : serial;
    // Deduped for the same idempotence reason as the partition seeding.
    auto seed = [this, &state](const OrderProperty& o) {
      compound_scratch_.first = o;
      if (std::find(state.compound.begin(), state.compound.end(),
                    compound_scratch_) == state.compound.end()) {
        state.compound.push_back(compound_scratch_);
      }
    };
    seed(OrderProperty::None());
    for (const OrderProperty& o : state.orders) seed(o);
  }
}

void PlanCounter::PropagateOrders(const EntryState& from, TableSet j,
                                  EntryState* to) {
  for (const OrderProperty& o : from.orders) {
    // Retired by the join, or not interesting above `j`?
    if (!RetainOrder(o, j, to->equiv, *interesting_, &interest_scratch_,
                     &canon_order_scratch_)) {
      continue;
    }
    const OrderProperty& canon = canon_order_scratch_;
    // Equivalent to a property already in the list?
    if (std::find(to->orders.begin(), to->orders.end(), canon) !=
        to->orders.end()) {
      continue;
    }
    to->orders.push_back(canon);
  }
}

void PlanCounter::PropagatePartitions(const EntryState& from,
                                      EntryState* to) {
  for (const PartitionProperty& p : from.partitions) {
    p.CanonicalizeInto(to->equiv, &part_scratch_);
    const PartitionProperty& canon = part_scratch_;
    if (std::find(to->partitions.begin(), to->partitions.end(), canon) ==
        to->partitions.end()) {
      to->partitions.push_back(canon);
    }
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
    PropagateOrders(s, jset, &j);
    PropagateOrders(l, jset, &j);
    if (plangen_.parallel) {
      PropagatePartitions(s, &j);
      PropagatePartitions(l, &j);
    }
    if (options_.multi_property == MultiPropertyMode::kCompound) {
      auto& [canon_o, canon_p] = compound_scratch_;
      for (const EntryState* e : {&s, &l}) {
        for (const auto& [o, pt] : e->compound) {
          // A retired component collapses to DC (buffer kept).
          RetainOrder(o, jset, j.equiv, *interesting_, &interest_scratch_,
                      &canon_o);
          pt.CanonicalizeInto(j.equiv, &canon_p);
          if (std::find(j.compound.begin(), j.compound.end(),
                        compound_scratch_) == j.compound.end()) {
            j.compound.push_back(compound_scratch_);
          }
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
      jcols_, j.equiv, &part_scratch_, &jparts_);
  if (fresh_target) {
    // The new partition value becomes interesting for the joined entry.
    if (std::find(j.partitions.begin(), j.partitions.end(), jparts_[0]) ==
        j.partitions.end()) {
      j.partitions.push_back(jparts_[0]);
    }
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
    // partition alternatives. distinct_orders_ is per-call scratch; a
    // local vector here would allocate once per enumerated join.
    distinct_orders_.clear();
    distinct_orders_.push_back(OrderProperty::None());
    for (const auto& [o, pt] : s.compound) {
      (void)pt;
      if (std::find(distinct_orders_.begin(), distinct_orders_.end(), o) ==
          distinct_orders_.end()) {
        distinct_orders_.push_back(o);
      }
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
      colocated |= ProbeColocated(p, jcols_, j.equiv, &part_scratch_);
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
  // Canonicalize each input order once (deduped); listp_/listc_ hold
  // indices into canon_inputs_, so dedupe is index identity and the
  // OrderProperty values are never copied again. canon_inputs_ is
  // size-tracked scratch: slots persist across calls (clear() would free
  // each element's column buffer), CanonicalizeInto rewrites them in
  // place, and num_canon bounds the live prefix.
  int num_canon = 0;
  for (const EntryState* e : {&s, &l}) {
    for (const OrderProperty& o : e->orders) {
      if (num_canon == static_cast<int>(canon_inputs_.size())) {
        canon_inputs_.emplace_back();
      }
      OrderProperty& slot = canon_inputs_[num_canon];
      o.CanonicalizeInto(j.equiv, &slot);
      bool dup = false;
      for (int i = 0; i < num_canon; ++i) {
        if (canon_inputs_[i] == slot) {
          dup = true;
          break;
        }
      }
      if (!dup) ++num_canon;
    }
  }
  listp_.clear();
  for (int i = 0; i < num_canon; ++i) {
    const OrderProperty& canon = canon_inputs_[i];
    // Propagatable by MGJN: every column of the order is a join column.
    bool all_join_cols = !canon.IsNone();
    for (const ColumnRef& c : canon.columns()) {
      if (std::find(jcols_.begin(), jcols_.end(), c) == jcols_.end()) {
        all_join_cols = false;
        break;
      }
    }
    if (all_join_cols) listp_.push_back(i);
  }
  listc_.clear();
  for (int i = 0; i < num_canon; ++i) {
    for (int p : listp_) {
      if (canon_inputs_[p].StrictlySubsumedBy(canon_inputs_[i])) {
        listc_.push_back(i);
        break;
      }
    }
  }
  // |listp ∪ listc| — both are index sets into the deduped inputs.
  int64_t merge_variants = static_cast<int64_t>(listp_.size());
  for (int i : listc_) {
    if (std::find(listp_.begin(), listp_.end(), i) == listp_.end()) {
      ++merge_variants;
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

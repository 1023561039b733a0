#include "optimizer/plan_generator.h"

#include <algorithm>
#include <cassert>

#include "optimizer/properties/join_rules.h"

namespace cote {

namespace {

/// The co-location rule (JoinPartitions) over two MEMO entries: each input
/// offers the partition of every plan it holds, in plan-list order.
std::vector<PartitionProperty> PlanJoinPartitions(
    bool parallel, const MemoEntry& s, const MemoEntry& l,
    std::span<const ColumnRef> jcols, const MemoEntry& j) {
  std::vector<PartitionProperty> out;
  JoinPartitions(
      parallel,
      [&s, &l](int side, const auto& fn) {
        for (const Plan* p : (side == 0 ? s : l).plans()) fn(p->partition);
      },
      jcols, j.equivalence(), &out);
  return out;
}

}  // namespace

PlanGenerator::PlanGenerator(const QueryGraph& graph, Memo* memo,
                             const CostModel& cost_model,
                             const CardinalityModel& cardinality,
                             const InterestingOrders& interesting,
                             const PlanGenOptions& options)
    : graph_(graph),
      memo_(memo),
      cost_(cost_model),
      card_(cardinality),
      interesting_(interesting),
      options_(options) {}

double PlanGenerator::AddStatsTo(OptimizeStats* stats) const {
  stats->join_plans_generated += generated_;
  stats->enforcer_plans += enforcers_;
  stats->scan_plans += scan_plans_;
  stats->pruned_by_pilot += pruned_by_pilot_;
  for (int m = 0; m < kNumJoinMethods; ++m) {
    stats->gen_seconds[m] += gen_time_[m].TotalSeconds();
  }
  stats->save_seconds += save_time_.TotalSeconds();
  stats->init_seconds += init_time_.TotalSeconds();
  return init_time_.TotalSeconds() + on_join_time_.TotalSeconds();
}

bool PlanGenerator::SavePlan(MemoEntry* entry, Plan* plan) {
  if (options_.pilot_pass && plan->cost > options_.pilot_cost) {
    ++pruned_by_pilot_;
    return false;
  }
  ScopedTimer t(&save_time_);
  return memo_->Insert(entry, plan);
}

OrderProperty PlanGenerator::OutputOrder(const OrderProperty& order,
                                         const MemoEntry& j) const {
  OrderProperty out;
  RetainOrder(order, j.equivalence(), &out);
  return out;
}

double PlanGenerator::EntryCardinality(TableSet s) {
  MemoEntry* e = memo_->Find(s);
  if (e != nullptr) return MemoizedJoinRows(card_, s, e->mutable_cardinality());
  return card_.JoinRows(s);
}

void PlanGenerator::InitializeEntry(TableSet s) {
  ScopedTimer timer(&init_time_);
  MemoEntry* entry = memo_->GetOrCreate(s);
  entry->BuildInterests(interesting_);
  entry->set_cardinality(card_.JoinRows(s));
  if (s.size() > 1) return;

  // Base-table access plans.
  const int t = s.First();
  const Table* table = graph_.table_ref(t).table;
  const double rows = entry->cardinality();

  const PartitionProperty base_part = options_.parallel
                                          ? BasePartition(graph_, t)
                                          : PartitionProperty::Serial();

  Plan* scan = memo_->NewPlan();
  scan->op = OpType::kTableScan;
  scan->tables = s;
  scan->rows = rows;
  scan->cost = cost_.TableScan(*table, rows);
  scan->order = OrderProperty::None();
  scan->partition = base_part;
  ++scan_plans_;
  SavePlan(entry, scan);

  for (size_t i = 0; i < table->indexes().size(); ++i) {
    const Index& idx = table->indexes()[i];
    OrderProperty key_order;
    for (int ord : idx.key_columns) key_order.Append(ColumnRef(t, ord));
    // Selectivity of local predicates matching the leading key column.
    double match_sel = 1.0;
    for (const LocalPredicate& p : graph_.local_predicates()) {
      if (p.column.table == t && !key_order.IsNone() &&
          p.column == key_order.columns()[0]) {
        match_sel *= p.selectivity;
      }
    }
    Plan* iscan = memo_->NewPlan();
    iscan->op = OpType::kIndexScan;
    iscan->tables = s;
    iscan->rows = rows;
    iscan->cost = cost_.IndexScan(*table, idx, match_sel, rows);
    iscan->order = OutputOrder(key_order, *entry);
    iscan->partition = base_part;
    iscan->index_id = static_cast<int>(i);
    ++scan_plans_;
    SavePlan(entry, iscan);
  }

  if (options_.parallel && options_.eager_partitions) {
    // Eager partition policy: force each interesting partition (a join
    // column of this table) into existence with a repartition enforcer.
    // A target some scan already satisfies is skipped — on a replicated
    // table, all of them. The counter seeds every target, replicated or
    // not: that filter is the generator's own.
    const Plan* cheapest = entry->Cheapest();
    for (const JoinPredicate& pred : graph_.join_predicates()) {
      ColumnRef side = pred.SideIn(t);
      if (!side.valid()) continue;
      PartitionProperty target = PartitionProperty::Hash({side});
      if (entry->CheapestSatisfying(OrderProperty::None(), target) !=
          nullptr) {
        continue;  // exists naturally
      }
      Plan* move = memo_->NewPlan();
      move->op = OpType::kRepartition;
      move->tables = s;
      move->rows = rows;
      move->cost = cheapest->cost + cost_.Repartition(rows);
      move->order = OrderProperty::None();
      move->partition = target;
      move->pipelinable = cheapest->pipelinable;
      move->child = cheapest;
      ++enforcers_;
      SavePlan(entry, move);
    }
  }

  if (options_.eager_orders) {
    // Eager order policy: force every interesting order applicable to this
    // table into existence with a SORT enforcer (§4 item 1).
    const Plan* cheapest = entry->Cheapest();
    for (const CanonicalInterest& interest : entry->equivalence().interests()) {
      const OrderProperty& o = interest.order;
      if (o.IsNone()) continue;
      if (entry->CheapestSatisfying(o, PartitionProperty::Serial()) !=
          nullptr) {
        continue;  // already exists naturally
      }
      Plan* sort = memo_->NewPlan();
      sort->op = OpType::kSort;
      sort->tables = s;
      sort->rows = rows;
      sort->cost = cheapest->cost + cost_.Sort(rows, o.size());
      sort->order = o;
      sort->partition = cheapest->partition;
      sort->pipelinable = false;  // SORT materializes
      sort->child = cheapest;
      ++enforcers_;
      SavePlan(entry, sort);
    }
  }
}

const Plan* PlanGenerator::InputPlan(MemoEntry* e, const OrderProperty& order,
                                     const PartitionProperty& partition) {
  // 1. Natural plan satisfying both requirements.
  const Plan* best = e->CheapestSatisfying(order, partition);

  // 2. Sort enforcer on the cheapest partition-satisfying plan.
  const Plan* part_ok = order.IsNone()
                            ? nullptr
                            : e->CheapestSatisfying(OrderProperty::None(),
                                                    partition);
  double sort_cost = part_ok == nullptr
                         ? 0
                         : part_ok->cost + cost_.Sort(part_ok->rows,
                                                      order.size());
  // 3. Repartition (+ sort) on the overall cheapest plan; only hash and
  // replicated targets are enforceable.
  const Plan* cheapest = e->Cheapest();
  bool enforceable =
      partition.kind() == PartitionProperty::Kind::kHash ||
      partition.kind() == PartitionProperty::Kind::kReplicated;
  double move_cost = 0;
  if (cheapest != nullptr && enforceable) {
    move_cost = cheapest->cost +
                (partition.kind() == PartitionProperty::Kind::kHash
                     ? cost_.Repartition(cheapest->rows)
                     : cost_.Replicate(cheapest->rows));
    if (!order.IsNone()) {
      move_cost += cost_.Sort(cheapest->rows, order.size());
    }
  }

  // Pick the cheapest feasible alternative; materialize enforcers lazily.
  double best_cost = best != nullptr ? best->cost
                                     : std::numeric_limits<double>::infinity();
  if (part_ok != nullptr && sort_cost < best_cost) {
    Plan* sort = memo_->NewPlan();
    sort->op = OpType::kSort;
    sort->tables = e->set();
    sort->rows = part_ok->rows;
    sort->cost = sort_cost;
    sort->order = order;
    sort->partition = part_ok->partition;
    sort->pipelinable = false;
    sort->child = part_ok;
    ++enforcers_;
    best = sort;
    best_cost = sort_cost;
  }
  if (cheapest != nullptr && enforceable && move_cost < best_cost) {
    Plan* move = memo_->NewPlan();
    move->op = partition.kind() == PartitionProperty::Kind::kHash
                   ? OpType::kRepartition
                   : OpType::kReplicate;
    move->tables = e->set();
    move->rows = cheapest->rows;
    move->cost = cheapest->cost +
                 (partition.kind() == PartitionProperty::Kind::kHash
                      ? cost_.Repartition(cheapest->rows)
                      : cost_.Replicate(cheapest->rows));
    move->order = OrderProperty::None();
    move->partition = partition;
    move->pipelinable = cheapest->pipelinable;  // exchanges stream
    move->child = cheapest;
    ++enforcers_;
    const Plan* input = move;
    if (!order.IsNone()) {
      Plan* sort = memo_->NewPlan();
      sort->op = OpType::kSort;
      sort->tables = e->set();
      sort->rows = move->rows;
      sort->cost = move_cost;
      sort->order = order;
      sort->partition = partition;
      sort->pipelinable = false;
      sort->child = move;
      ++enforcers_;
      input = sort;
    }
    best = input;
  }
  return best;
}

const Plan* PlanGenerator::ReplicatedInput(MemoEntry* e) {
  return InputPlan(e, OrderProperty::None(), PartitionProperty::Replicated());
}

void PlanGenerator::OnJoin(TableSet outer, TableSet inner,
                           const std::vector<int>& pred_indices,
                           bool cartesian) {
  ScopedTimer timer(&on_join_time_);
  (void)cartesian;

  MemoEntry* s = memo_->Find(outer);
  MemoEntry* l = memo_->Find(inner);
  MemoEntry* j = memo_->Find(outer.Union(inner));
  assert(s != nullptr && l != nullptr && j != nullptr);
  MemoizedJoinRows(card_, j->set(), j->mutable_cardinality());

  // Merge-join candidates, oriented per side, deduped by their canonical
  // merge order (transitive-closure predicates often alias each other).
  std::vector<MergeCandidate> candidates;
  std::vector<OrderProperty> seen_orders;
  MergeCandidate all_cols;
  auto add_candidate = [&](const MergeCandidate& cand) {
    OrderProperty canon = cand.outer_cols.Canonicalize(j->equivalence());
    if (std::find(seen_orders.begin(), seen_orders.end(), canon) !=
        seen_orders.end()) {
      return;
    }
    seen_orders.push_back(canon);
    candidates.push_back(cand);
  };
  for (int pi : pred_indices) {
    const JoinPredicate& p = graph_.join_predicates()[pi];
    ColumnRef oc = outer.Contains(p.left.table) ? p.left : p.right;
    ColumnRef ic = outer.Contains(p.left.table) ? p.right : p.left;
    add_candidate(MergeCandidate{{oc}, {ic}});
    all_cols.outer_cols.Append(oc);
    all_cols.inner_cols.Append(ic);
  }
  // The composite candidate: one merge on all the join columns at once.
  // Table 3's listp ∪ listc has no counterpart (the counter never counts
  // it), so every star_s MGJN miss in Figure 5 is an underestimate of
  // exactly one plan per ordered join with >= 2 predicates.
  if (pred_indices.size() >= 2) {
    add_candidate(all_cols);
  }

  GenerateNljn(s, l, j, pred_indices);
  if (!cartesian) {
    GenerateMgjn(s, l, j, candidates);
    GenerateHsjn(s, l, j, pred_indices);
  }
}

const Plan* PlanGenerator::IndexProbeInner(
    const MemoEntry& l, const MemoEntry& j, const std::vector<int>& preds,
    std::span<const ColumnRef> jcols) const {
  if (l.set().size() != 1) return nullptr;
  const int t = l.set().First();
  const Table* table = graph_.table_ref(t).table;
  for (const Plan* p : l.plans()) {
    if (p->op != OpType::kIndexScan || p->index_id < 0) continue;
    if (!IndexLeadsJoin(graph_, t, table->indexes()[p->index_id], preds)) {
      continue;
    }
    // Probing a distributed inner requires co-location or a local copy.
    // The generator asks it of the plan it probes; the counter, which has
    // no plans, of the inner's whole partition list.
    const bool colocated = !options_.parallel ||
                           ProbeColocated(p->partition, jcols, j.equivalence());
    return colocated ? p : nullptr;
  }
  return nullptr;
}

void PlanGenerator::GenerateNljn(MemoEntry* s, MemoEntry* l, MemoEntry* j,
                                 const std::vector<int>& preds) {
  std::vector<Plan*> plans;
  {
    ScopedTimer timer(&gen_time_[static_cast<int>(JoinMethod::kNljn)]);
    ColumnList jcols;
    CanonicalJoinColumns(graph_, preds, j->equivalence(), &jcols);
    const double out_rows = j->cardinality();

    auto make = [&](const Plan* po, const Plan* pi,
                    const PartitionProperty& out_part) {
      if (po == nullptr || pi == nullptr) return;
      Plan* p = memo_->NewPlan();
      p->op = OpType::kNljn;
      p->tables = j->set();
      p->rows = out_rows;
      p->cost = cost_.Nljn(po->rows, po->cost, pi->rows, pi->cost);
      p->order = OutputOrder(po->order, *j);  // NLJN: full order propagation
      p->partition = out_part.Canonicalize(j->equivalence());
      p->pipelinable = po->pipelinable && pi->pipelinable;
      p->child = po;
      p->inner = pi;
      ++generated_[JoinMethod::kNljn];
      plans.push_back(p);
    };

    // Index nested-loops variant: probe an inner index per outer row
    // instead of rescanning the inner.
    const Plan* probe = IndexProbeInner(*l, *j, preds, jcols);
    auto make_inl = [&](const Plan* po) {
      if (po == nullptr || probe == nullptr) return;
      const Table* inner_table = graph_.table_ref(l->set().First()).table;
      Plan* p = memo_->NewPlan();
      p->op = OpType::kNljn;
      p->tables = j->set();
      p->rows = out_rows;
      p->cost = cost_.IndexNljn(po->rows, po->cost, *inner_table, out_rows);
      p->order = OutputOrder(po->order, *j);
      p->partition = po->partition.Canonicalize(j->equivalence());
      p->pipelinable = po->pipelinable;  // index probes stream
      p->child = po;
      p->inner = probe;
      // Tag as index nested-loops: the inner is a parameterized access
      // path probed per outer row, not a fully-scanned input, so its
      // standalone cost is NOT included in the join's cost.
      p->index_id = probe->index_id;
      ++generated_[JoinMethod::kNljn];
      plans.push_back(p);
    };

    // One NLJN per (distinct outer order value × co-location alternative):
    // the outer's order propagates fully, and in parallel mode each
    // interesting partition alternative yields its own plan (this is the
    // order × partition product the paper's §3.4 counts).
    std::vector<OrderProperty> outer_orders;
    for (const Plan* po : s->plans()) {
      if (std::find(outer_orders.begin(), outer_orders.end(), po->order) ==
          outer_orders.end()) {
        outer_orders.push_back(po->order);
      }
    }

    auto redundant_inner = [&](const Plan* po,
                               const PartitionProperty& out_part) {
      // Optional DB2-oversight reproduction: an additional (redundant)
      // NLJN with an index-ordered inner.
      if (!options_.redundant_nljn_inner || preds.empty() ||
          l->set().size() != 1) {
        return;
      }
      const JoinPredicate& p0 = graph_.join_predicates()[preds[0]];
      ColumnRef ic = l->set().Contains(p0.left.table) ? p0.left : p0.right;
      const Plan* pi2 = l->CheapestSatisfying(
          OrderProperty{ic}.Canonicalize(l->equivalence()),
          PartitionProperty::Serial());
      if (pi2 != nullptr) make(po, pi2, out_part);  // duplicate on purpose
    };

    if (!options_.parallel) {
      for (const OrderProperty& o : outer_orders) {
        const Plan* po =
            s->CheapestSatisfying(o, PartitionProperty::Serial());
        const Plan* pi = l->Cheapest();
        make(po, pi, PartitionProperty::Serial());
        make_inl(po);
        redundant_inner(po, PartitionProperty::Serial());
      }
    } else {
      std::vector<PartitionProperty> jparts =
          PlanJoinPartitions(options_.parallel, *s, *l, jcols, *j);
      for (const OrderProperty& o : outer_orders) {
        for (const PartitionProperty& pv : jparts) {
          const Plan* po = InputPlan(s, o, pv);
          const Plan* pi = InputPlan(l, OrderProperty::None(), pv);
          make(po, pi, pv);
        }
        // Broadcast-inner alternative: outer keeps its own distribution.
        const Plan* po = s->CheapestSatisfying(o, PartitionProperty::Serial());
        if (po != nullptr &&
            po->partition.kind() != PartitionProperty::Kind::kReplicated) {
          make(po, ReplicatedInput(l), po->partition);
        }
        make_inl(po);
        redundant_inner(po, po != nullptr ? po->partition
                                          : PartitionProperty::Serial());
      }
    }
  }
  for (Plan* p : plans) SavePlan(j, p);
}

void PlanGenerator::GenerateMgjn(
    MemoEntry* s, MemoEntry* l, MemoEntry* j,
    const std::vector<MergeCandidate>& candidates) {
  std::vector<Plan*> plans;
  {
    ScopedTimer timer(&gen_time_[static_cast<int>(JoinMethod::kMgjn)]);
    const double out_rows = j->cardinality();

    for (const MergeCandidate& cand : candidates) {
      OrderProperty outer_req = cand.outer_cols.Canonicalize(s->equivalence());
      OrderProperty inner_req = cand.inner_cols.Canonicalize(l->equivalence());
      OrderProperty base_out = cand.outer_cols.Canonicalize(j->equivalence());

      // The co-location rule runs per merge candidate, on that candidate's
      // columns; the counter runs it once per join, on all join columns.
      const ColumnList& jcols = base_out.columns();

      // Output order candidates: the merge order itself, plus coverage —
      // outer orders that subsume it also come out sorted (§3.3), which is
      // how one merge join yields several plans.
      struct OutVariant {
        OrderProperty outer_side;  // requirement in s-canonical terms
        OrderProperty output;      // j-canonical output order (pre-filter)
      };
      std::vector<OutVariant> variants;
      variants.push_back(OutVariant{outer_req, base_out});
      for (const Plan* po : s->plans()) {
        OrderProperty po_j = po->order.Canonicalize(j->equivalence());
        if (po_j.size() > base_out.size() &&
            po_j.SatisfiesPrefix(base_out)) {
          bool dup = false;
          for (const OutVariant& v : variants) dup |= (v.output == po_j);
          if (!dup) variants.push_back(OutVariant{po->order, po_j});
        }
      }

      for (const PartitionProperty& pv :
           PlanJoinPartitions(options_.parallel, *s, *l, jcols, *j)) {
        for (const OutVariant& v : variants) {
          const Plan* po = InputPlan(s, v.outer_side, pv);
          const Plan* pi = InputPlan(l, inner_req, pv);
          if (po == nullptr || pi == nullptr) continue;
          Plan* p = memo_->NewPlan();
          p->op = OpType::kMgjn;
          p->tables = j->set();
          p->rows = out_rows;
          p->cost = cost_.Mgjn(po->rows, po->cost, pi->rows, pi->cost,
                               out_rows);
          OrderProperty out_order = OutputOrder(v.output, *j);
          p->order = out_order;
          p->partition = pv;
          p->pipelinable = po->pipelinable && pi->pipelinable;
          p->child = po;
          p->inner = pi;
          ++generated_[JoinMethod::kMgjn];
          plans.push_back(p);
        }
      }
    }
  }
  for (Plan* p : plans) SavePlan(j, p);
}

void PlanGenerator::GenerateHsjn(MemoEntry* s, MemoEntry* l, MemoEntry* j,
                                 const std::vector<int>& preds) {
  std::vector<Plan*> plans;
  {
    ScopedTimer timer(&gen_time_[static_cast<int>(JoinMethod::kHsjn)]);
    ColumnList jcols;
    CanonicalJoinColumns(graph_, preds, j->equivalence(), &jcols);
    const double out_rows = j->cardinality();

    auto make = [&](const Plan* po, const Plan* pi,
                    const PartitionProperty& out_part) {
      if (po == nullptr || pi == nullptr) return;
      Plan* p = memo_->NewPlan();
      p->op = OpType::kHsjn;
      p->tables = j->set();
      p->rows = out_rows;
      p->cost = cost_.Hsjn(po->rows, po->cost, pi->rows, pi->cost, out_rows);
      p->order = OrderProperty::None();  // HSJN destroys order
      p->partition = out_part.Canonicalize(j->equivalence());
      p->pipelinable = false;  // the hash build materializes
      p->child = po;
      p->inner = pi;
      ++generated_[JoinMethod::kHsjn];
      plans.push_back(p);
    };

    for (const PartitionProperty& pv :
         PlanJoinPartitions(options_.parallel, *s, *l, jcols, *j)) {
      make(InputPlan(s, OrderProperty::None(), pv),
           InputPlan(l, OrderProperty::None(), pv), pv);
    }
    if (options_.parallel) {
      // Broadcast-inner variant: outer stays put, inner is replicated.
      const Plan* po = s->Cheapest();
      const Plan* pi = ReplicatedInput(l);
      if (po != nullptr &&
          po->partition.kind() != PartitionProperty::Kind::kReplicated) {
        make(po, pi, po->partition);
      }
    }
  }
  for (Plan* p : plans) SavePlan(j, p);
}

}  // namespace cote

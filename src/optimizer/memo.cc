#include "optimizer/memo.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cote {

MemoEntry::MemoEntry(TableSet set, const QueryGraph& graph,
                     const ColumnIds& ids, std::vector<int>* pred_scratch)
    : set_(set), outer_enabled_(graph.OuterEnabled(set)) {
  // Logical properties computed once per entry: outer-eligibility, and the
  // column equivalence of the inner predicates applied inside the set.
  equiv_.Build(ids, graph, set, pred_scratch);
}

const Plan* MemoEntry::Cheapest() const {
  const Plan* best = nullptr;
  for (const Plan* p : plans_) {
    if (best == nullptr || p->cost < best->cost) best = p;
  }
  return best;
}

const Plan* MemoEntry::CheapestSatisfying(
    const OrderProperty& required_order,
    const PartitionProperty& required_partition) const {
  const Plan* best = nullptr;
  for (const Plan* p : plans_) {
    if (!p->order.SatisfiesPrefix(required_order)) continue;
    if (!p->partition.Satisfies(required_partition)) continue;
    if (best == nullptr || p->cost < best->cost) best = p;
  }
  return best;
}

FlatSetIndex& Memo::Index() const {
  // hotpath-ok: lazily built once per query, then read-only probes
  if (!index_.has_value()) index_.emplace(graph_.num_tables());
  return *index_;
}

const ColumnIds& Memo::Ids() const {
  if (parent_ != nullptr) return parent_->Ids();
  // hotpath-ok: built once per query, then read-only
  if (!ids_.has_value()) ids_.emplace().Build(graph_);
  return *ids_;
}

MemoEntry* Memo::GetOrCreate(TableSet s, bool* created) {
  // Trust boundary of the flat MEMO: the set must be a non-empty subset of
  // the query's tables, or the dense index lookup is out of range.
  COTE_DCHECK(!s.empty());
  COTE_DCHECK(graph_.AllTables().ContainsAll(s));
  MemoEntry* existing = nullptr;
  if (parent_ != nullptr) {
    // Shard mode: a new entry goes to the adoption log, unindexed.
    existing = Find(s);
  } else {
    bool fresh = false;
    const int32_t idx = Index().FindOrInsert(s.bits(), &fresh);
    if (!fresh) {
      existing = creation_order_[idx];
    } else {
      // A fresh index extends the arena by exactly one slot; any gap
      // means the index and the arena have diverged.
      COTE_CHECK_EQ(static_cast<size_t>(idx), creation_order_.size());
    }
  }
  if (created != nullptr) *created = existing == nullptr;
  if (existing != nullptr) return existing;
  entry_arena_.emplace_back(s, graph_, Ids(), &pred_scratch_);
  creation_order_.push_back(&entry_arena_.back());
  return creation_order_.back();
}

MemoEntry* Memo::Find(TableSet s) {
  return const_cast<MemoEntry*>(std::as_const(*this).Find(s));
}

const MemoEntry* Memo::Find(TableSet s) const {
  if (parent_ != nullptr) {
    // Shard mode: the entry being filled, else a lower-rank entry.
    if (!creation_order_.empty() && creation_order_.back()->set() == s) {
      return creation_order_.back();
    }
    return parent_->Find(s);
  }
  const int32_t idx = Index().Find(s.bits());
  if (idx < 0) return nullptr;
  COTE_DCHECK_LT(static_cast<size_t>(idx), creation_order_.size());
  return creation_order_[idx];
}

Plan* Memo::NewPlan() {
  ++plans_allocated_;
  if (budget_ != nullptr) budget_->ChargePlans(1);
  arena_.emplace_back();
  return &arena_.back();
}

bool Memo::Insert(MemoEntry* entry, Plan* plan) {
  COTE_DCHECK(entry != nullptr);
  COTE_DCHECK(plan != nullptr);
  const bool track_pipeline = graph_.wants_first_rows();
  // Dominance: q dominates p if q is no more expensive and q's properties
  // are at least as general (q's order prefix-satisfies p's, q's partition
  // satisfies p's requirement, and — for first-rows queries, where the
  // pipelinable property is interesting — q pipelines whenever p does).
  auto dominates = [track_pipeline](const Plan* q, const Plan* p) {
    return q->cost <= p->cost && q->order.SatisfiesPrefix(p->order) &&
           q->partition.Satisfies(p->partition) &&
           (!track_pipeline || q->pipelinable || !p->pipelinable);
  };
  for (const Plan* existing : entry->plans_) {
    if (dominates(existing, plan)) return false;
  }
  auto& plans = entry->plans_;
  plans.erase(std::remove_if(plans.begin(), plans.end(),
                             [&](const Plan* existing) {
                               return dominates(plan, existing);
                             }),
              plans.end());
  plans.push_back(plan);
  return true;
}

Memo::~Memo() = default;

void Memo::PrepareShards(int count) {
  Ids();  // built here, before the workers read it through their shards
  while (static_cast<int>(shards_.size()) < count) {
    shards_.push_back(std::make_unique<Memo>(graph_));
    shards_.back()->parent_ = this;
  }
}

void Memo::AdoptShardRank() {
  for (const std::unique_ptr<Memo>& shard : shards_) {
    for (MemoEntry* e : shard->creation_order_) {
      bool fresh = false;
      const int32_t idx = Index().FindOrInsert(e->set().bits(), &fresh);
      // Workers own disjoint mask slices and the memo is complete only up
      // to the previous rank, so every adopted entry is new; the dense id
      // must extend the creation order by exactly one slot — the same
      // discipline GetOrCreate enforces on the serial path, which is what
      // makes the merged id layout bit-identical to a serial run.
      COTE_CHECK(fresh);
      COTE_CHECK_EQ(static_cast<size_t>(idx), creation_order_.size());
      creation_order_.push_back(e);
    }
    shard->creation_order_.clear();
    plans_allocated_ += shard->plans_allocated_;
    shard->plans_allocated_ = 0;
  }
}

int64_t Memo::plans_stored() const {
  int64_t n = 0;
  for (const MemoEntry* e : creation_order_) {
    n += static_cast<int64_t>(e->plans().size());
  }
  return n;
}

int64_t Memo::ApproxMemoryBytes() const {
  int64_t bytes = 0;
  for (const MemoEntry* e : creation_order_) {
    bytes += static_cast<int64_t>(sizeof(MemoEntry));
    for (const Plan* p : e->plans()) {
      // A plan holds its property columns inline unless a value spilled.
      bytes += static_cast<int64_t>(sizeof(Plan) +
                                    p->order.columns().heap_bytes() +
                                    p->partition.columns().heap_bytes());
    }
  }
  return bytes;
}

}  // namespace cote

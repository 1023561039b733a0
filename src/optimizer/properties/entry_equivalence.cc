#include "optimizer/properties/entry_equivalence.h"

namespace cote {

ColumnRef EntryEquivalence::Root(ColumnRef c) const {
  for (;;) {
    const ColumnRef up = rep_[ids_->Of(c)];
    if (up == c) return c;
    c = up;
  }
}

void EntryEquivalence::Build(const ColumnIds& ids, const QueryGraph& graph,
                             TableSet s, std::vector<int>* pred_scratch) {
  ids_ = &ids;
  rep_.assign(ids.columns().begin(), ids.columns().end());
  interests_.clear();
  // The internal-predicate gather walks only the set's own edges.
  graph.InternalPredicates(s, pred_scratch);
  for (int pi : *pred_scratch) {
    const JoinPredicate& p = graph.join_predicates()[pi];
    if (p.kind != JoinKind::kInner) continue;
    const ColumnRef a = Root(p.left);
    const ColumnRef b = Root(p.right);
    if (a == b) continue;
    // The smaller root stays the root, so each root is its class minimum.
    if (a < b) {
      rep_[ids.Of(b)] = a;
    } else {
      rep_[ids.Of(a)] = b;
    }
  }
  // Every parent is a class minimum, so its id is below its child's: one
  // ascending pass points each member at its root.
  for (ColumnRef& r : rep_) r = rep_[ids.Of(r)];
}

void EntryEquivalence::BuildInterests(const InterestingOrders& interesting,
                                      TableSet s) {
  interests_.clear();
  for (const OrderInterest& i : interesting.interests()) {
    if (!interesting.ActiveFor(i, s)) continue;
    interests_.push_back(CanonicalInterest{
        i.order.Canonicalize(*this), i.source == OrderSource::kGroupBy});
  }
}

bool EntryEquivalence::Useful(const OrderProperty& order) const {
  if (order.IsNone()) return false;
  for (const CanonicalInterest& i : interests_) {
    if (i.set_semantics ? order.SatisfiesSet(i.order)
                        : order.SatisfiesPrefix(i.order)) {
      return true;
    }
  }
  return false;
}

}  // namespace cote

#include "optimizer/properties/interesting_orders.h"

#include <algorithm>
#include <tuple>

namespace cote {

namespace {

TableSet TablesOf(const std::vector<ColumnRef>& cols) {
  TableSet s;
  for (const ColumnRef& c : cols) s = s.With(c.table);
  return s;
}

}  // namespace

InterestingOrders::InterestingOrders(const QueryGraph& graph)
    : graph_(&graph) {
  Rebind(graph);
}

void InterestingOrders::Add(const std::vector<ColumnRef>& cols,
                            OrderSource source, int pred_index) {
  if (cols.empty()) return;
  // Dedupe identical (order, source) pairs; keep distinct pred_indexes
  // only when the retirement behaviour differs (different table pairs).
  for (const OrderInterest& existing : interests_) {
    if (existing.order.columns() == cols && existing.source == source &&
        existing.pred_index == pred_index) {
      return;
    }
  }
  interests_.push_back(
      OrderInterest{OrderProperty(cols), source, pred_index, TablesOf(cols)});
}

void InterestingOrders::Rebind(const QueryGraph& graph) {
  graph_ = &graph;
  interests_.clear();

  // Join-column orders: one single-column order per predicate side.
  const auto& preds = graph.join_predicates();
  for (size_t i = 0; i < preds.size(); ++i) {
    cols_scratch_.assign(1, preds[i].left);
    Add(cols_scratch_, OrderSource::kJoin, static_cast<int>(i));
    cols_scratch_.assign(1, preds[i].right);
    Add(cols_scratch_, OrderSource::kJoin, static_cast<int>(i));
  }

  // Multi-column merge orders for table pairs joined by several
  // predicates: pairs in ascending (lower, higher) table order, each
  // pair's predicates in index order.
  pairs_scratch_.clear();
  for (size_t i = 0; i < preds.size(); ++i) {
    int a = preds[i].left.table, b = preds[i].right.table;
    pairs_scratch_.push_back(
        TablePairPred{std::min(a, b), std::max(a, b), static_cast<int>(i)});
  }
  std::sort(pairs_scratch_.begin(), pairs_scratch_.end(),
            [](const TablePairPred& x, const TablePairPred& y) {
              return std::tie(x.lo, x.hi, x.pred) <
                     std::tie(y.lo, y.hi, y.pred);
            });
  for (size_t lo = 0; lo < pairs_scratch_.size();) {
    size_t hi = lo + 1;
    while (hi < pairs_scratch_.size() &&
           pairs_scratch_[hi].lo == pairs_scratch_[lo].lo &&
           pairs_scratch_[hi].hi == pairs_scratch_[lo].hi) {
      ++hi;
    }
    if (hi - lo >= 2) {
      cols_scratch_.clear();
      cols_scratch2_.clear();
      for (size_t k = lo; k < hi; ++k) {
        cols_scratch_.push_back(preds[pairs_scratch_[k].pred].left);
        cols_scratch2_.push_back(preds[pairs_scratch_[k].pred].right);
      }
      // The concatenated order retires with (any of) the pair's
      // predicates; use the first predicate of the pair as the retirement
      // anchor.
      Add(cols_scratch_, OrderSource::kJoin, pairs_scratch_[lo].pred);
      Add(cols_scratch2_, OrderSource::kJoin, pairs_scratch_[lo].pred);
    }
    lo = hi;
  }

  // ORDER BY: every non-empty prefix is interesting as soon as its tables
  // are all present (orders are pushed down to base tables, §3.3 / [21]).
  const auto& ob = graph.order_by();
  for (size_t len = 1; len <= ob.size(); ++len) {
    cols_scratch_.assign(ob.begin(),
                         ob.begin() + static_cast<std::ptrdiff_t>(len));
    Add(cols_scratch_, OrderSource::kOrderBy, -1);
  }

  // GROUP BY: the full grouping set, plus per-table projections
  // (pushdown) in ascending table order.
  const auto& gb = graph.group_by();
  if (!gb.empty()) {
    Add(gb, OrderSource::kGroupBy, -1);
    const TableSet gb_tables = TablesOf(gb);
    if (gb_tables.size() > 1) {
      for (int t : gb_tables) {
        cols_scratch_.clear();
        for (const ColumnRef& c : gb) {
          if (c.table == t) cols_scratch_.push_back(c);
        }
        Add(cols_scratch_, OrderSource::kGroupBy, -1);
      }
    }
  }
}

bool InterestingOrders::ActiveFor(const OrderInterest& i, TableSet s) const {
  if (!s.ContainsAll(i.tables)) return false;  // columns not yet available
  if (i.source == OrderSource::kJoin) {
    const JoinPredicate& p = graph_->join_predicates()[i.pred_index];
    // Retired once the predicate has been applied inside `s`.
    if (s.Contains(p.left.table) && s.Contains(p.right.table)) return false;
  }
  return true;
}

}  // namespace cote

#include "optimizer/cost/cardinality.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cote {

void CardinalityModel::Rebind(const QueryGraph& graph) {
  graph_ = &graph;
  cache_rows_.clear();
  if (cache_index_.has_value()) cache_index_->Reset(graph.num_tables());
}

double CardinalityModel::BaseRows(int table_ref) const {
  const Table* t = graph_->table_ref(table_ref).table;
  double rows = t->row_count() * graph_->LocalSelectivity(table_ref);
  return std::max(rows, 0.1);
}

double CardinalityModel::UnrefinedRows(TableSet s) const {
  double rows = 1.0;
  for (int t : s) rows *= BaseRows(t);

  // Collect predicates fully inside `s`, grouped by equivalence class so
  // that derived (transitive-closure) duplicates are not double-counted:
  // a class spanning k columns inside `s` contributes its k-1 strongest
  // selectivities — a spanning tree of the class. Classes multiply in
  // ascending representative order, each class's selectivities ascending,
  // then the independent selectivities in predicate order.
  const ColumnEquivalence& equiv = graph_->GlobalEquivalence();
  class_sels_.clear();
  independent_sels_.clear();
  for (const JoinPredicate& p : graph_->join_predicates()) {
    if (!s.Contains(p.left.table) || !s.Contains(p.right.table)) continue;
    const ColumnRef rep = equiv.Find(p.left);
    if (p.kind == JoinKind::kInner && rep == equiv.Find(p.right)) {
      class_sels_.push_back(ClassSelectivity{
          rep.Encode(), p.selectivity,
          TableSet::Single(p.left.table).With(p.right.table)});
    } else {
      independent_sels_.push_back(p.selectivity);
    }
  }
  std::sort(class_sels_.begin(), class_sels_.end(),
            [](const ClassSelectivity& a, const ClassSelectivity& b) {
              return a.cls != b.cls ? a.cls < b.cls : a.sel < b.sel;
            });
  for (size_t lo = 0; lo < class_sels_.size();) {
    const uint32_t cls = class_sels_[lo].cls;
    size_t hi = lo;
    TableSet class_tables;  // distinct member tables seen
    for (; hi < class_sels_.size() && class_sels_[hi].cls == cls; ++hi) {
      class_tables = class_tables.Union(class_sels_[hi].tables);
    }
    const int to_apply = std::min<int>(static_cast<int>(hi - lo),
                                       std::max(0, class_tables.size() - 1));
    for (int i = 0; i < to_apply; ++i) rows *= class_sels_[lo + i].sel;
    lo = hi;
  }
  for (double sel : independent_sels_) rows *= sel;
  return std::max(rows, 0.01);
}

double CardinalityModel::JoinRows(TableSet s) const {
  if (s.size() == 1) return BaseRows(s.First());
  // hotpath-ok: built once per session, then rebound in place
  if (!cache_index_.has_value()) cache_index_.emplace(graph_->num_tables());
  if (const int32_t idx = cache_index_->Find(s.bits()); idx >= 0) {
    return cache_rows_[static_cast<size_t>(idx)];
  }

  // The scratch is finished with before the refinement below recurses.
  double rows = UnrefinedRows(s);

  if (use_key_refinement_) {
    // Key refinement: a join predicate binding a unique column of table u
    // cannot yield more rows than the join of the remaining tables.
    for (const JoinPredicate& p : graph_->join_predicates()) {
      if (!s.Contains(p.left.table) || !s.Contains(p.right.table)) continue;
      for (const ColumnRef& side : {p.left, p.right}) {
        const Table* tab = graph_->table_ref(side.table).table;
        bool unique = tab->column(side.column).ndv >= tab->row_count() - 0.5;
        if (!unique) continue;
        TableSet rest = s.Minus(TableSet::Single(side.table));
        if (rest.empty()) continue;
        double rest_rows = JoinRows(rest);
        // The unique side's own filters still apply.
        double filter = graph_->LocalSelectivity(side.table);
        rows = std::min(rows, std::max(rest_rows * filter, 0.01));
      }
    }
  }
  // Recursion above may have inserted other sets; the index hands out
  // dense ids in insertion order, matching cache_rows_ positions.
  bool created = false;
  const int32_t idx = cache_index_->FindOrInsert(s.bits(), &created);
  COTE_DCHECK(created);
  COTE_DCHECK_EQ(static_cast<size_t>(idx), cache_rows_.size());
  (void)idx;
  cache_rows_.push_back(rows);
  return rows;
}

}  // namespace cote

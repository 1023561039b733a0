#include "query/column_ids.h"

#include <algorithm>

#include "common/check.h"
#include "query/query_graph.h"

namespace cote {

void ColumnIds::Build(const QueryGraph& graph) {
  columns_.clear();
  for (const JoinPredicate& p : graph.join_predicates()) {
    if (p.kind != JoinKind::kInner) continue;
    columns_.push_back(p.left);
    columns_.push_back(p.right);
  }
  // Ids in Encode order: the smallest id of a class is its representative.
  std::sort(columns_.begin(), columns_.end());
  columns_.erase(std::unique(columns_.begin(), columns_.end()),
                 columns_.end());
  table_base_.resize(static_cast<size_t>(graph.num_tables()));
  int32_t total = 0;
  for (int t = 0; t < graph.num_tables(); ++t) {
    table_base_[static_cast<size_t>(t)] = total;
    total += graph.table_ref(t).table->num_columns();
  }
  id_of_.assign(static_cast<size_t>(total), -1);
  for (size_t id = 0; id < columns_.size(); ++id) {
    const ColumnRef c = columns_[id];
    // A predicate column outside its table would index another table's
    // slots: catch it here, once per query.
    COTE_CHECK(c.valid() && c.table < graph.num_tables());
    COTE_CHECK_LT(c.column, graph.table_ref(c.table).table->num_columns());
    id_of_[static_cast<size_t>(table_base_[c.table] + c.column)] =
        static_cast<int32_t>(id);
  }
}

}  // namespace cote

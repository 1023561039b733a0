#ifndef COTE_QUERY_COLUMN_IDS_H_
#define COTE_QUERY_COLUMN_IDS_H_

#include <cstdint>
#include <vector>

#include "query/column_ref.h"

namespace cote {

class QueryGraph;

/// \brief Dense ids of the columns an entry equivalence can merge: the
/// sides of a query's inner join predicates, numbered in ColumnRef::Encode
/// order, so the smallest id of an equivalence class is its
/// minimum-encoding member (the ColumnEquivalence representative). Every
/// other column is its own representative in every entry.
///
/// One table per compile, not per graph: the MEMO and the plan counter
/// each build one for the query they are bound to, and their entries'
/// representative arrays (EntryEquivalence) are indexed by it. A flat
/// per-(table, column) array makes Of() two loads.
class ColumnIds {
 public:
  /// Numbers the inner-join columns of `graph`, keeping storage.
  void Build(const QueryGraph& graph);

  int size() const { return static_cast<int>(columns_.size()); }
  /// The id of `c` (a column of the query's FROM tables), or -1.
  int Of(ColumnRef c) const {
    return id_of_[static_cast<size_t>(table_base_[c.table] + c.column)];
  }
  /// The columns by id.
  const std::vector<ColumnRef>& columns() const { return columns_; }

 private:
  /// Per table ref: the index of its column 0 in id_of_.
  std::vector<int32_t> table_base_;
  /// Per (table ref, column): its id, or -1.
  std::vector<int32_t> id_of_;
  std::vector<ColumnRef> columns_;  ///< ascending Encode
};

}  // namespace cote

#endif  // COTE_QUERY_COLUMN_IDS_H_

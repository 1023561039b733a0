#ifndef COTE_PARSER_BINDER_H_
#define COTE_PARSER_BINDER_H_

#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "parser/ast.h"
#include "query/multi_block.h"
#include "query/query_graph.h"

namespace cote {

/// \brief Options controlling semantic analysis.
struct BinderOptions {
  /// Derive implied predicates through transitive closure (what commercial
  /// systems do; introduces cycles into the join graph, §2.2 of the paper).
  bool transitive_closure = true;
};

/// \brief Resolves a parsed statement against a catalog into a QueryGraph.
///
/// Local predicate selectivities are estimated from catalog statistics:
/// equality = 1/NDV, range = 1/3 per bound, BETWEEN = 1/4, LIKE = 1/10,
/// <> = 1 - 1/NDV. Join predicate selectivity = 1/max(NDV of either side).
class Binder {
 public:
  explicit Binder(const Catalog& catalog, BinderOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// Binds the top-level block only; uncorrelated scalar subqueries are
  /// folded into local predicates (their blocks are dropped).
  StatusOr<QueryGraph> Bind(const ast::SelectStatement& stmt);

  /// Binds all query blocks: the main block plus one QueryGraph per
  /// uncorrelated scalar subquery (recursively).
  StatusOr<MultiBlockQuery> BindMulti(const ast::SelectStatement& stmt);

  /// Convenience: parse + bind (top block) in one call.
  static StatusOr<QueryGraph> BindSql(const Catalog& catalog,
                                      const std::string& sql,
                                      BinderOptions options = {});

  /// Convenience: parse + bind all blocks in one call.
  static StatusOr<MultiBlockQuery> BindSqlMulti(const Catalog& catalog,
                                                const std::string& sql,
                                                BinderOptions options = {});

 private:
  StatusOr<ColumnRef> Resolve(const ast::ColumnName& name,
                              const QueryGraph& graph);
  Status BindPredicate(const ast::Predicate& pred, bool left_outer,
                       int null_side_ref, QueryGraph* graph);
  double LocalSelectivity(const ast::Predicate& pred, ColumnRef col,
                          const QueryGraph& graph) const;

  const Catalog& catalog_;
  BinderOptions options_;
  /// When non-null, BindPredicate appends bound subquery blocks here.
  std::vector<QueryGraph>* collected_blocks_ = nullptr;
};

}  // namespace cote

#endif  // COTE_PARSER_BINDER_H_

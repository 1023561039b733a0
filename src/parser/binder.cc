#include "parser/binder.h"

#include <algorithm>
#include <string_view>

#include "common/str_util.h"
#include "parser/parser.h"

namespace cote {

StatusOr<QueryGraph> Binder::BindSql(const Catalog& catalog,
                                     const std::string& sql,
                                     BinderOptions options) {
  auto stmt = Parser::Parse(sql);
  if (!stmt.ok()) return stmt.status();
  Binder binder(catalog, options);
  return binder.Bind(stmt.value());
}

StatusOr<MultiBlockQuery> Binder::BindSqlMulti(const Catalog& catalog,
                                               const std::string& sql,
                                               BinderOptions options) {
  auto stmt = Parser::Parse(sql);
  if (!stmt.ok()) return stmt.status();
  Binder binder(catalog, options);
  return binder.BindMulti(stmt.value());
}

StatusOr<MultiBlockQuery> Binder::BindMulti(const ast::SelectStatement& stmt) {
  MultiBlockQuery out;
  collected_blocks_ = &out.subquery_blocks;
  auto main = Bind(stmt);
  collected_blocks_ = nullptr;
  if (!main.ok()) return main.status();
  out.main = std::move(main).value();
  return out;
}

namespace {

/// The table ref `alias` names, or -1. The graph's table refs are the flat
/// alias table: a query has at most 64 of them (TableSet's cap).
int FindAlias(const QueryGraph& graph, std::string_view alias) {
  for (int t = 0; t < graph.num_tables(); ++t) {
    if (graph.table_ref(t).alias == alias) return t;
  }
  return -1;
}

/// Adds the join and the local predicates of `preds` to the counts, so
/// Bind can size the graph's vectors once.
void CountPredicates(const std::vector<ast::Predicate>& preds, size_t* joins,
                     size_t* locals) {
  for (const ast::Predicate& pred : preds) {
    if (pred.is_join && pred.subquery == nullptr) {
      ++*joins;
    } else {
      ++*locals;
    }
  }
}

}  // namespace

StatusOr<ColumnRef> Binder::Resolve(const ast::ColumnName& name,
                                    const QueryGraph& graph) {
  if (!name.qualifier.empty()) {
    const int ref = FindAlias(graph, name.qualifier);
    if (ref < 0) {
      return Status::BindError("unknown table or alias " + name.qualifier);
    }
    int ord = graph.table_ref(ref).table->FindColumn(name.column);
    if (ord < 0) {
      return Status::BindError("column " + name.ToString() + " not found");
    }
    return ColumnRef(ref, ord);
  }
  // Unqualified: must resolve uniquely across all FROM tables.
  ColumnRef found;
  int matches = 0;
  for (int t = 0; t < graph.num_tables(); ++t) {
    int ord = graph.table_ref(t).table->FindColumn(name.column);
    if (ord >= 0) {
      found = ColumnRef(t, ord);
      ++matches;
    }
  }
  if (matches == 0) {
    return Status::BindError("column " + name.column + " not found");
  }
  if (matches > 1) {
    return Status::BindError("column " + name.column + " is ambiguous");
  }
  return found;
}

double Binder::LocalSelectivity(const ast::Predicate& pred, ColumnRef col,
                                const QueryGraph& graph) const {
  double ndv = std::max(1.0, graph.ColumnNdv(col));
  const Histogram& hist =
      graph.table_ref(col.table).table->column(col.column).histogram;
  // Literal values map to a stable pseudo-position in the column's
  // normalized domain; the histogram converts positions to selectivities.
  // Subquery comparisons have no literal — use the domain midpoint.
  double pos = pred.subquery != nullptr
                   ? 0.5
                   : Histogram::LiteralPosition(pred.literal.text);
  switch (pred.op) {
    case ast::CompareOp::kEq:
      return std::clamp(hist.EqualitySelectivity(pos), 1e-9, 1.0);
    case ast::CompareOp::kNe:
      return 1.0 - std::clamp(hist.EqualitySelectivity(pos), 1e-9, 1.0);
    case ast::CompareOp::kLt:
    case ast::CompareOp::kLe:
      return std::clamp(hist.LessThanSelectivity(pos), 0.02, 0.98);
    case ast::CompareOp::kGt:
    case ast::CompareOp::kGe:
      return std::clamp(1.0 - hist.LessThanSelectivity(pos), 0.02, 0.98);
    case ast::CompareOp::kBetween: {
      double hi = Histogram::LiteralPosition(pred.literal2.text);
      return std::clamp(hist.RangeSelectivity(std::min(pos, hi),
                                              std::max(pos, hi)),
                        0.02, 0.9);
    }
    case ast::CompareOp::kLike:
      return 1.0 / 10.0;
  }
  (void)ndv;
  return 0.1;
}

Status Binder::BindPredicate(const ast::Predicate& pred, bool left_outer,
                             int null_side_ref, QueryGraph* graph) {
  auto left = Resolve(pred.left, *graph);
  if (!left.ok()) return left.status();
  if (pred.subquery != nullptr) {
    // Uncorrelated scalar subquery: its block is compiled independently;
    // for THIS block it acts like a comparison with an (unknown) constant.
    if (collected_blocks_ != nullptr) {
      Binder sub_binder(catalog_, options_);
      sub_binder.collected_blocks_ = collected_blocks_;
      auto sub = sub_binder.Bind(*pred.subquery);
      if (!sub.ok()) return sub.status();
      collected_blocks_->push_back(std::move(sub).value());
    }
    LocalPredicate lp;
    lp.column = *left;
    lp.op = pred.op == ast::CompareOp::kEq ? LocalOp::kEq : LocalOp::kRange;
    lp.selectivity = LocalSelectivity(pred, *left, *graph);
    graph->AddLocalPredicate(lp);
    return Status::OK();
  }
  if (pred.is_join) {
    auto right = Resolve(pred.right, *graph);
    if (!right.ok()) return right.status();
    if (left->table == right->table) {
      return Status::BindError("self-join predicates within one table ref "
                               "are not supported: " +
                               pred.left.ToString() + " = " +
                               pred.right.ToString());
    }
    JoinPredicate jp;
    jp.left = *left;
    jp.right = *right;
    if (left_outer && (left->table == null_side_ref ||
                       right->table == null_side_ref)) {
      jp.kind = JoinKind::kLeftOuter;
      // Orient so that `right` is the null-producing side.
      if (jp.left.table == null_side_ref) std::swap(jp.left, jp.right);
    } else {
      jp.kind = JoinKind::kInner;
    }
    jp.selectivity = 1.0 / std::max({graph->ColumnNdv(jp.left),
                                     graph->ColumnNdv(jp.right), 1.0});
    graph->AddJoinPredicate(jp);
    return Status::OK();
  }
  LocalPredicate lp;
  lp.column = *left;
  switch (pred.op) {
    case ast::CompareOp::kEq:
    case ast::CompareOp::kNe:
      lp.op = LocalOp::kEq;
      break;
    case ast::CompareOp::kLike:
      lp.op = LocalOp::kLike;
      break;
    default:
      lp.op = LocalOp::kRange;
      break;
  }
  lp.selectivity = LocalSelectivity(pred, *left, *graph);
  graph->AddLocalPredicate(lp);
  return Status::OK();
}

StatusOr<QueryGraph> Binder::Bind(const ast::SelectStatement& stmt) {
  QueryGraph graph;
  size_t num_refs = 0, num_joins = 0, num_locals = 0;
  for (const ast::FromItem& item : stmt.from) {
    num_refs += 1 + item.joins.size();
    for (const ast::JoinClause& jc : item.joins) {
      CountPredicates(jc.on, &num_joins, &num_locals);
    }
  }
  CountPredicates(stmt.where, &num_joins, &num_locals);
  graph.Reserve(num_refs, num_joins, num_locals);

  // Pass 1: register all table refs so ON/WHERE can see every alias.
  auto add_ref = [&](const ast::TableRef& ref) -> Status {
    const Table* t = catalog_.FindTable(ref.table_name);
    if (t == nullptr) {
      return Status::BindError("unknown table " + ref.table_name);
    }
    const std::string& alias = ref.alias.empty() ? ref.table_name : ref.alias;
    if (FindAlias(graph, alias) >= 0) {
      return Status::BindError("duplicate table alias " + alias);
    }
    graph.AddTableRef(t, alias);
    return Status::OK();
  };
  for (const ast::FromItem& item : stmt.from) {
    COTE_RETURN_NOT_OK(add_ref(item.table));
    for (const ast::JoinClause& jc : item.joins) {
      COTE_RETURN_NOT_OK(add_ref(jc.table));
    }
  }

  // Pass 2: bind ON conditions (in FROM order; a JOIN's table is the ref
  // registered right after the refs before it), then WHERE conjuncts.
  int ref = 0;
  for (const ast::FromItem& item : stmt.from) {
    for (const ast::JoinClause& jc : item.joins) {
      ++ref;
      for (const ast::Predicate& pred : jc.on) {
        COTE_RETURN_NOT_OK(BindPredicate(pred, jc.left_outer, ref, &graph));
      }
    }
    ++ref;
  }
  for (const ast::Predicate& pred : stmt.where) {
    COTE_RETURN_NOT_OK(
        BindPredicate(pred, /*left_outer=*/false, /*null_side_ref=*/-1,
                      &graph));
  }

  // GROUP BY / ORDER BY interest lists.
  std::vector<ColumnRef> group_by;
  for (const ast::ColumnName& name : stmt.group_by) {
    auto c = Resolve(name, graph);
    if (!c.ok()) return c.status();
    group_by.push_back(*c);
  }
  if (!group_by.empty()) {
    graph.SetGroupBy(std::move(group_by));
    graph.set_has_aggregation(true);
  }
  std::vector<ColumnRef> order_by;
  for (const ast::OrderItem& item : stmt.order_by) {
    auto c = Resolve(item.column, graph);
    if (!c.ok()) return c.status();
    order_by.push_back(*c);
  }
  if (!order_by.empty()) graph.SetOrderBy(std::move(order_by));

  // SELECT DISTINCT deduplicates on the select list — it plans exactly
  // like a GROUP BY on those columns, so their orders become interesting.
  const bool distinct_groups = stmt.distinct && graph.group_by().empty();
  std::vector<ColumnRef> select_cols;
  for (const ast::SelectItem& item : stmt.select_list) {
    if (item.agg != ast::AggFunc::kNone) graph.set_has_aggregation(true);
    if (!item.star && !item.column.column.empty()) {
      auto c = Resolve(item.column, graph);
      if (!c.ok()) return c.status();
      if (distinct_groups) select_cols.push_back(*c);
    }
  }
  if (distinct_groups && !select_cols.empty()) {
    graph.SetGroupBy(std::move(select_cols));
    graph.set_has_aggregation(true);
  }

  if (stmt.fetch_first > 0) graph.set_fetch_first(stmt.fetch_first);

  if (options_.transitive_closure) graph.DeriveTransitiveClosure();
  return graph;
}

}  // namespace cote

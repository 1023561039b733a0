#ifndef COTE_OPTIMIZER_PROPERTIES_INTERESTING_ORDERS_H_
#define COTE_OPTIMIZER_PROPERTIES_INTERESTING_ORDERS_H_

#include <vector>

#include "common/table_set.h"
#include "optimizer/properties/order_property.h"
#include "query/query_graph.h"

namespace cote {

/// Where an interesting order comes from; determines its coverage semantics
/// (§4 item 2: prefix subsumption for ORDER BY, set subsumption for
/// GROUP BY) and when it retires.
enum class OrderSource {
  kJoin,     ///< matches the join column(s) of a (future) join predicate
  kGroupBy,  ///< matches the grouping attributes (set semantics)
  kOrderBy,  ///< matches (a prefix of) the ordering attributes
};

/// \brief One interesting order value with its provenance.
struct OrderInterest {
  OrderProperty order;
  OrderSource source = OrderSource::kJoin;
  /// For kJoin: index of the predicate this interest serves.
  int pred_index = -1;
  /// Tables whose columns appear in the order; the interest is applicable
  /// to a MEMO entry only once all of them are joined in.
  TableSet tables;
};

/// \brief Derives and answers questions about the query's interesting orders.
///
/// Derivation follows §3.2/§4 of the paper and the order-optimization
/// literature it cites:
///  * per join predicate, a single-column order on each side;
///  * per joined table pair with several predicates, the concatenated
///    multi-column order on each side (multi-column sort-merge);
///  * every non-empty prefix of the ORDER BY list (prefix semantics);
///  * the GROUP BY column set (set semantics), plus its per-table
///    projections (pushdown to base tables).
///
/// Retirement: a kJoin interest retires inside a MEMO entry that contains
/// both tables of its predicate (the join has been applied; the order can
/// no longer help a future merge join). kGroupBy/kOrderBy interests never
/// retire — they are consumed above the join tree. Each MEMO entry caches
/// the interests active in it, canonical in its equivalence
/// (EntryEquivalence), and answers the "is this order still useful" test
/// from that cache.
class InterestingOrders {
 public:
  explicit InterestingOrders(const QueryGraph& graph);

  /// Re-derives the interests for another query in place. The interest
  /// list and the derivation scratch keep their storage, so a session
  /// rebinding to a same-or-smaller query allocates nothing (while every
  /// interest fits a ColumnList inline).
  void Rebind(const QueryGraph& graph);

  const std::vector<OrderInterest>& interests() const { return interests_; }

  /// True if interest `i` is applicable to entry `s` (all its columns are
  /// available) and still interesting above `s` (not retired).
  bool ActiveFor(const OrderInterest& i, TableSet s) const;

 private:
  /// Appends the interest (cols, source, pred_index) unless it is empty or
  /// already listed.
  void Add(const std::vector<ColumnRef>& cols, OrderSource source,
           int pred_index);

  // Pointer (never null) rather than reference so Rebind can retarget.
  const QueryGraph* graph_;
  std::vector<OrderInterest> interests_;
  // Derivation scratch (capacity retained across rebinds).
  std::vector<ColumnRef> cols_scratch_;
  std::vector<ColumnRef> cols_scratch2_;
  /// (lower table, higher table, predicate index) per join predicate.
  struct TablePairPred {
    int lo;
    int hi;
    int pred;
  };
  std::vector<TablePairPred> pairs_scratch_;
};

}  // namespace cote

#endif  // COTE_OPTIMIZER_PROPERTIES_INTERESTING_ORDERS_H_

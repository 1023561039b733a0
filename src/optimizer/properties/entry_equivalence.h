#ifndef COTE_OPTIMIZER_PROPERTIES_ENTRY_EQUIVALENCE_H_
#define COTE_OPTIMIZER_PROPERTIES_ENTRY_EQUIVALENCE_H_

#include <vector>

#include "common/table_set.h"
#include "optimizer/properties/interesting_orders.h"
#include "optimizer/properties/order_property.h"
#include "query/column_ids.h"
#include "query/column_ref.h"
#include "query/query_graph.h"

namespace cote {

/// One interesting order active in a MEMO entry, canonical in the entry's
/// equivalence, with its coverage semantics.
struct CanonicalInterest {
  OrderProperty order;
  /// kGroupBy interests: any permutation of the prefix covers them.
  bool set_semantics = false;
};

/// \brief The column equivalence of one MEMO entry, and the interesting
/// orders active there.
///
/// Both are logical properties of the entry, computed once when the entry
/// is created (§3.2's property caching), in every MEMO entry and every
/// plan-counter entry state:
///  * a representative array over the query's column ids (ColumnIds, one
///    table per MEMO or counter), built from the inner join predicates
///    applied inside the entry, so Find is a few array loads where a
///    per-entry ColumnEquivalence scanned its node list;
///  * the entry's active interesting orders, canonical here, so Table 2's
///    retirement test (RetainOrder) compares a canonical order against
///    them instead of re-canonicalizing every interest on every call.
/// Representatives follow ColumnEquivalence's rule: the minimum-encoded
/// member of each class.
class EntryEquivalence {
 public:
  /// Before Build: every column is its own representative.
  EntryEquivalence() = default;

  /// Rebuilds as the equivalence of the inner join predicates applied
  /// inside `s` (gathered into `pred_scratch`), over `ids` (built for
  /// `graph`, and outliving this), and drops the cached interests. Storage
  /// is kept, so a recycled entry state rebuilds to the same size without
  /// allocating.
  void Build(const ColumnIds& ids, const QueryGraph& graph, TableSet s,
             std::vector<int>* pred_scratch);

  /// Caches the interests of `interesting` active in entry `s` (the set
  /// this equivalence was built for), canonical here, in interest order.
  void BuildInterests(const InterestingOrders& interesting, TableSet s);

  ColumnRef Find(ColumnRef c) const;
  bool Equivalent(ColumnRef a, ColumnRef b) const {
    return Find(a) == Find(b);
  }

  const std::vector<CanonicalInterest>& interests() const {
    return interests_;
  }

  /// True if `order`, canonical here, is worth keeping in the entry: it
  /// satisfies at least one active interest under that interest's
  /// coverage semantics. Never true for DC.
  bool Useful(const OrderProperty& order) const;

 private:
  /// Root of `c`'s class during Build (c must have an id).
  ColumnRef Root(ColumnRef c) const;

  const ColumnIds* ids_ = nullptr;
  /// By column id: the representative (after Build, always a root).
  std::vector<ColumnRef> rep_;
  std::vector<CanonicalInterest> interests_;
};

inline ColumnRef EntryEquivalence::Find(ColumnRef c) const {
  const int id = ids_ == nullptr ? -1 : ids_->Of(c);
  return id < 0 ? c : rep_[id];
}

}  // namespace cote

#endif  // COTE_OPTIMIZER_PROPERTIES_ENTRY_EQUIVALENCE_H_

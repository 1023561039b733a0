#ifndef COTE_OPTIMIZER_COST_CARDINALITY_H_
#define COTE_OPTIMIZER_COST_CARDINALITY_H_

#include <optional>
#include <vector>

#include "common/flat_set_index.h"
#include "common/table_set.h"
#include "query/query_graph.h"

namespace cote {

/// \brief Estimates the output cardinality of (sub)queries.
///
/// Cardinality is a *logical* property: it depends only on the table set,
/// so the result is computed once per MEMO entry and cached by the caller
/// (§4 item 5 of the paper).
///
/// Two fidelity levels exist on purpose:
///  * the full model (`use_key_refinement = true`) exploits keys — a join
///    whose predicate binds a unique column cannot multiply rows beyond the
///    other input — as the real optimizer does;
///  * the simple model (`false`) skips this, exactly like the paper's
///    plan-estimate mode, whose "simpler" cardinalities occasionally flip
///    the cardinality-sensitive Cartesian-product heuristic and cause the
///    small join-count discrepancies reported in §5.2.
///
/// A model memoizes internally without synchronization: one per thread.
class CardinalityModel {
 public:
  CardinalityModel(const QueryGraph& graph, bool use_key_refinement)
      : graph_(&graph), use_key_refinement_(use_key_refinement) {}

  /// Retargets the model at another query and forgets every memoized
  /// result. The memo and the scratch buffers keep their storage, so a
  /// session rebinding to a same-or-smaller query allocates nothing.
  void Rebind(const QueryGraph& graph);

  /// Rows of a single table ref after local predicates.
  double BaseRows(int table_ref) const;

  /// Rows of the join result over table set `s` (all applicable join
  /// predicates applied, with at most one selectivity per column-
  /// equivalence pair to avoid double-counting transitive duplicates).
  double JoinRows(TableSet s) const;

  bool use_key_refinement() const { return use_key_refinement_; }

 private:
  /// One join predicate inside the set whose sides are equivalent: its
  /// class (representative encoding), selectivity, and the tables of its
  /// two sides.
  struct ClassSelectivity {
    uint32_t cls;
    double sel;
    TableSet tables;
  };

  /// Rows of `s` before key refinement: the product of base rows and of
  /// the selectivities of the predicates inside `s`.
  double UnrefinedRows(TableSet s) const;

  // Pointer (never null) rather than reference so Rebind can retarget.
  const QueryGraph* graph_;
  bool use_key_refinement_;
  /// Key refinement recurses on subsets; memoize so each set is costed
  /// once. Sets map through the index to slots of cache_rows_; the index
  /// is built on first use, sized from the graph's table count.
  mutable std::optional<FlatSetIndex> cache_index_;
  mutable std::vector<double> cache_rows_;
  /// UnrefinedRows scratch, cleared per call (capacity retained).
  mutable std::vector<ClassSelectivity> class_sels_;
  mutable std::vector<double> independent_sels_;
};

/// Memoize-on-entry helper shared by normal mode and estimate mode (§4
/// item 5): both visitors cache JoinRows(s) in their per-entry state the
/// first time the entry's cardinality is consulted. `*slot` is the
/// caller's per-entry cache field; negative means "not yet computed".
inline double MemoizedJoinRows(const CardinalityModel& model, TableSet s,
                               double* slot) {
  if (*slot < 0) *slot = model.JoinRows(s);
  return *slot;
}

}  // namespace cote

#endif  // COTE_OPTIMIZER_COST_CARDINALITY_H_

#ifndef COTE_OPTIMIZER_PROPERTIES_JOIN_RULES_H_
#define COTE_OPTIMIZER_PROPERTIES_JOIN_RULES_H_

#include <algorithm>
#include <vector>

#include "catalog/table.h"
#include "common/table_set.h"
#include "optimizer/properties/interesting_orders.h"
#include "optimizer/properties/order_property.h"
#include "optimizer/properties/partition_property.h"
#include "query/equivalence.h"
#include "query/query_graph.h"

namespace cote {

/// \file
/// The per-join rules that decide a join's physical alternatives, defined
/// once: the plan generator applies them to a MEMO entry's plans, the plan
/// counter to an entry's property lists, so the two modes agree by
/// construction (§3.1). None allocates except through the caller's scratch
/// and output buffers, and none makes a virtual call.

/// Entry equivalence (§3.2): adds to `*equiv` the equivalences of the inner
/// join predicates applied inside `s`, gathered into `pred_scratch`.
void AddEntryEquivalences(const QueryGraph& graph, TableSet s,
                          std::vector<int>* pred_scratch,
                          ColumnEquivalence* equiv);

/// The J-canonical representatives of the join columns of `preds`, deduped,
/// in predicate order. Fills `*out` (cleared first).
void CanonicalJoinColumns(const QueryGraph& graph,
                          const std::vector<int>& preds,
                          const ColumnEquivalence& j,
                          std::vector<ColumnRef>* out);

/// Table 2's order retirement: writes `order`, canonical in entry `j`
/// (table set `j_set`, equivalence `j_equiv`), to `*out`, collapsed to DC
/// (None) once no interesting order active above `j` needs it. Returns
/// whether the order survives. `interest_scratch` must not alias `out`.
bool RetainOrder(const OrderProperty& order, TableSet j_set,
                 const ColumnEquivalence& j_equiv,
                 const InterestingOrders& interesting,
                 OrderProperty* interest_scratch, OrderProperty* out);

/// The partition the catalog gives base table `t` in parallel mode: hash,
/// replicated or single-node. Writes `*out`, keeping its key buffer.
void BasePartition(const QueryGraph& graph, int t,
                   std::vector<ColumnRef>* cols_scratch,
                   PartitionProperty* out);

/// §4's co-location rule: fills `*out` (cleared first) with the output
/// partitions of a join on `jcols` (canonical in `j`). Serial mode has only
/// Serial. In parallel mode: each input hash partition keyed on a subset of
/// `jcols` (canonical, deduped, outer first); SingleNode if both inputs can
/// sit on one node; failing both, DB2's fresh repartition target
/// Hash(jcols), or SingleNode without join columns. `for_each_input(side,
/// fn)` calls `fn` on each partition input `side` (0 outer, 1 inner)
/// offers. Returns true exactly when the fresh target was introduced.
template <typename InputPartitions, typename PartitionList>
bool JoinPartitions(bool parallel, const InputPartitions& for_each_input,
                    const std::vector<ColumnRef>& jcols,
                    const ColumnEquivalence& j, PartitionProperty* scratch,
                    PartitionList* out) {
  out->clear();
  if (!parallel) {
    out->push_back(PartitionProperty::Serial());
    return false;
  }
  auto add = [out](const PartitionProperty& p) {
    if (std::find(out->begin(), out->end(), p) == out->end()) {
      out->push_back(p);
    }
  };
  bool single_node[2] = {false, false};
  for (int side = 0; side < 2; ++side) {
    for_each_input(side, [&](const PartitionProperty& p) {
      p.CanonicalizeInto(j, scratch);
      if (scratch->KeysSubsetOf(jcols)) add(*scratch);
      single_node[side] |= p.kind() == PartitionProperty::Kind::kSingleNode;
    });
  }
  if (single_node[0] && single_node[1]) add(PartitionProperty::SingleNode());
  if (!out->empty()) return false;
  if (jcols.empty()) {
    add(PartitionProperty::SingleNode());
    return false;
  }
  scratch->AssignHash(jcols);
  add(*scratch);
  return true;
}

/// Index nested-loops eligibility: `idx`, an index of base table `t`, is
/// led by a join column of `preds`. False for an index without a key.
bool IndexLeadsJoin(const QueryGraph& graph, int t, const Index& idx,
                    const std::vector<int>& preds);

/// Index nested-loops in parallel mode: an inner distributed as `p` can be
/// probed in place if replicated or co-located on `jcols` (canonical in j).
bool ProbeColocated(const PartitionProperty& p,
                    const std::vector<ColumnRef>& jcols,
                    const ColumnEquivalence& j, PartitionProperty* scratch);

}  // namespace cote

#endif  // COTE_OPTIMIZER_PROPERTIES_JOIN_RULES_H_

#ifndef COTE_OPTIMIZER_PROPERTIES_JOIN_RULES_H_
#define COTE_OPTIMIZER_PROPERTIES_JOIN_RULES_H_

#include <algorithm>
#include <span>
#include <vector>

#include "catalog/table.h"
#include "optimizer/properties/column_list.h"
#include "optimizer/properties/entry_equivalence.h"
#include "optimizer/properties/order_property.h"
#include "optimizer/properties/partition_property.h"
#include "query/query_graph.h"

namespace cote {

/// \file
/// The per-join rules that decide a join's physical alternatives, defined
/// once: the plan generator applies them to a MEMO entry's plans, the plan
/// counter to an entry's property lists, so the two modes agree by
/// construction (§3.1). Both read an entry's equivalence and active
/// interests from its EntryEquivalence. Property values are inline, so none
/// allocates except through the caller's output lists (and for a value past
/// ColumnList::kInline columns), and none makes a virtual call.

/// The J-canonical representatives of the join columns of `preds`, deduped,
/// in predicate order. Fills `*out` (cleared first).
void CanonicalJoinColumns(const QueryGraph& graph,
                          const std::vector<int>& preds,
                          const EntryEquivalence& j, ColumnList* out);

/// Table 2's order retirement: writes `order`, canonical in entry `j`, to
/// `*out`, collapsed to DC (None) once no interesting order active in `j`
/// needs it (EntryEquivalence::Useful). Returns whether the order survives.
bool RetainOrder(const OrderProperty& order, const EntryEquivalence& j,
                 OrderProperty* out);

/// The partition the catalog gives base table `t` in parallel mode: hash,
/// replicated or single-node.
PartitionProperty BasePartition(const QueryGraph& graph, int t);

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
                    std::span<const ColumnRef> jcols,
                    const EntryEquivalence& j, PartitionList* out) {
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
      const PartitionProperty canon = p.Canonicalize(j);
      if (canon.KeysSubsetOf(jcols)) add(canon);
      single_node[side] |= p.kind() == PartitionProperty::Kind::kSingleNode;
    });
  }
  if (single_node[0] && single_node[1]) add(PartitionProperty::SingleNode());
  if (!out->empty()) return false;
  if (jcols.empty()) {
    add(PartitionProperty::SingleNode());
    return false;
  }
  add(PartitionProperty::Hash(jcols));
  return true;
}

/// Index nested-loops eligibility: `idx`, an index of base table `t`, is
/// led by a join column of `preds`. False for an index without a key.
bool IndexLeadsJoin(const QueryGraph& graph, int t, const Index& idx,
                    const std::vector<int>& preds);

/// Index nested-loops in parallel mode: an inner distributed as `p` can be
/// probed in place if replicated or co-located on `jcols` (canonical in j).
bool ProbeColocated(const PartitionProperty& p,
                    std::span<const ColumnRef> jcols,
                    const EntryEquivalence& j);

}  // namespace cote

#endif  // COTE_OPTIMIZER_PROPERTIES_JOIN_RULES_H_

#include "optimizer/properties/join_rules.h"

namespace cote {

void CanonicalJoinColumns(const QueryGraph& graph,
                          const std::vector<int>& preds,
                          const EntryEquivalence& j, ColumnList* out) {
  out->clear();
  for (int pi : preds) {
    const ColumnRef rep = j.Find(graph.join_predicates()[pi].left);
    if (!out->Contains(rep)) out->Append(rep);
  }
}

bool RetainOrder(const OrderProperty& order, const EntryEquivalence& j,
                 OrderProperty* out) {
  *out = order.Canonicalize(j);
  // Useful() is false for DC, so a None input stays None.
  if (j.Useful(*out)) return true;
  *out = OrderProperty::None();  // retired: collapses to DC
  return false;
}

PartitionProperty BasePartition(const QueryGraph& graph, int t) {
  const PartitioningSpec& spec = graph.table_ref(t).table->partitioning();
  switch (spec.kind) {
    case PartitionKind::kHash: {
      ColumnList cols;
      for (int ord : spec.key_columns) cols.Append(ColumnRef(t, ord));
      return PartitionProperty::Hash(cols);
    }
    case PartitionKind::kReplicated:
      return PartitionProperty::Replicated();
    default:
      return PartitionProperty::SingleNode();
  }
}

bool IndexLeadsJoin(const QueryGraph& graph, int t, const Index& idx,
                    const std::vector<int>& preds) {
  if (idx.key_columns.empty()) return false;
  const ColumnRef leading(t, idx.key_columns[0]);
  for (int pi : preds) {
    if (graph.join_predicates()[pi].SideIn(t) == leading) return true;
  }
  return false;
}

bool ProbeColocated(const PartitionProperty& p,
                    std::span<const ColumnRef> jcols,
                    const EntryEquivalence& j) {
  if (p.kind() == PartitionProperty::Kind::kReplicated) return true;
  return p.Canonicalize(j).KeysSubsetOf(jcols);
}

}  // namespace cote

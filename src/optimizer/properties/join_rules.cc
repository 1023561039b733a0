#include "optimizer/properties/join_rules.h"

namespace cote {

void AddEntryEquivalences(const QueryGraph& graph, TableSet s,
                          std::vector<int>* pred_scratch,
                          ColumnEquivalence* equiv) {
  // The internal-predicate gather walks only the set's own edges, in
  // ascending predicate order.
  graph.InternalPredicates(s, pred_scratch);
  for (int pi : *pred_scratch) {
    const JoinPredicate& p = graph.join_predicates()[pi];
    if (p.kind != JoinKind::kInner) continue;
    equiv->AddEquivalence(p.left, p.right);
  }
}

void CanonicalJoinColumns(const QueryGraph& graph,
                          const std::vector<int>& preds,
                          const ColumnEquivalence& j,
                          std::vector<ColumnRef>* out) {
  out->clear();
  for (int pi : preds) {
    ColumnRef rep = j.Find(graph.join_predicates()[pi].left);
    if (std::find(out->begin(), out->end(), rep) == out->end()) {
      out->push_back(rep);
    }
  }
}

bool RetainOrder(const OrderProperty& order, TableSet j_set,
                 const ColumnEquivalence& j_equiv,
                 const InterestingOrders& interesting,
                 OrderProperty* interest_scratch, OrderProperty* out) {
  order.CanonicalizeInto(j_equiv, out);
  // Useful() is false for DC, so a None input stays None.
  if (interesting.Useful(*out, j_set, j_equiv, interest_scratch)) return true;
  out->Assign({});  // retired: collapses to DC (buffer kept)
  return false;
}

void BasePartition(const QueryGraph& graph, int t,
                   std::vector<ColumnRef>* cols_scratch,
                   PartitionProperty* out) {
  const PartitioningSpec& spec = graph.table_ref(t).table->partitioning();
  if (spec.kind == PartitionKind::kHash) {
    cols_scratch->clear();
    for (int ord : spec.key_columns) cols_scratch->emplace_back(t, ord);
    out->AssignHash(*cols_scratch);
    return;
  }
  // Copy-assigned from a named value, not moved: `out` keeps its buffer.
  const PartitionProperty other = spec.kind == PartitionKind::kReplicated
                                      ? PartitionProperty::Replicated()
                                      : PartitionProperty::SingleNode();
  *out = other;
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
                    const std::vector<ColumnRef>& jcols,
                    const ColumnEquivalence& j, PartitionProperty* scratch) {
  if (p.kind() == PartitionProperty::Kind::kReplicated) return true;
  p.CanonicalizeInto(j, scratch);
  return scratch->KeysSubsetOf(jcols);
}

}  // namespace cote

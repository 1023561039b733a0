#include "query/query_graph.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"

namespace cote {

int QueryGraph::AddTableRef(const Table* table, std::string alias) {
  // Always-on: TableSet supports at most 64 table refs, and every bitmask
  // downstream (adjacency, MEMO index, enumeration) relies on it.
  COTE_CHECK(table != nullptr);
  COTE_CHECK_LT(num_tables(), 64);
  QueryTableRef ref;
  ref.table = table;
  ref.alias = alias.empty() ? table->name() : std::move(alias);
  tables_.push_back(std::move(ref));
  global_equiv_valid_.Store(false);
  adj_valid_.Store(false);
  return num_tables() - 1;
}

void QueryGraph::EnsureAdjacency() const {
  if (adj_valid_.Load()) return;
  // Cold cache: build under the graph's mutex so concurrent const readers
  // (e.g. pool workers compiling the same graph) serialize here once.
  MutexLock lock(cache_mu_.mu);
  if (adj_valid_.Load()) return;
  const int n = num_tables();
  const int num_preds = static_cast<int>(join_preds_.size());
  adj_.adj.assign(static_cast<size_t>(n), 0);
  adj_.pair_offset.assign(static_cast<size_t>(n) * n + 1, 0);
  adj_.pair_preds.assign(static_cast<size_t>(num_preds), 0);
  adj_.inner_only_mask = 0;
  adj_.outer_pred_indices.clear();

  for (int t = 0; t < n; ++t) {
    if (tables_[t].inner_only) adj_.inner_only_mask |= BitAt(t);
  }
  // Counting pass, then prefix sums, then a stable fill — predicate
  // indices stay ascending within each table pair because the fill scans
  // the predicate list in order.
  for (int i = 0; i < num_preds; ++i) {
    const JoinPredicate& p = join_preds_[i];
    int a = p.left.table, b = p.right.table;
    // Predicates referencing tables outside the FROM list would corrupt
    // the CSR layout; catch them here, once, when the cache is built.
    COTE_CHECK(a >= 0 && a < n);
    COTE_CHECK(b >= 0 && b < n);
    COTE_CHECK_NE(a, b);
    adj_.adj[a] |= BitAt(b);
    adj_.adj[b] |= BitAt(a);
    ++adj_.pair_offset[PairKey(a, b) + 1];
    if (p.kind == JoinKind::kLeftOuter) adj_.outer_pred_indices.push_back(i);
  }
  for (size_t k = 1; k < adj_.pair_offset.size(); ++k) {
    adj_.pair_offset[k] += adj_.pair_offset[k - 1];
  }
  std::vector<int32_t> cursor(adj_.pair_offset.begin(),
                              adj_.pair_offset.end() - 1);
  for (int i = 0; i < num_preds; ++i) {
    const JoinPredicate& p = join_preds_[i];
    adj_.pair_preds[cursor[PairKey(p.left.table, p.right.table)]++] = i;
  }
  adj_valid_.Store(true);
}

double QueryGraph::ColumnNdv(ColumnRef c) const {
  const Table* t = tables_[c.table].table;
  return t->column(c.column).ndv;
}

std::string QueryGraph::ColumnName(ColumnRef c) const {
  const QueryTableRef& ref = tables_[c.table];
  return ref.alias + "." + ref.table->column(c.column).name;
}

std::vector<int> QueryGraph::ConnectingPredicates(TableSet s,
                                                  TableSet l) const {
  std::vector<int> out;
  ConnectingPredicates(s, l, &out);
  return out;
}

void QueryGraph::ConnectingPredicates(TableSet s, TableSet l,
                                      std::vector<int>* out) const {
  out->clear();
  if (s.Overlaps(l)) {
    // Degenerate (never hit by the enumerator, whose splits are disjoint):
    // keep the original cut semantics with a direct scan.
    for (size_t i = 0; i < join_preds_.size(); ++i) {
      const JoinPredicate& p = join_preds_[i];
      bool ls = s.Contains(p.left.table), rs = s.Contains(p.right.table);
      bool ll = l.Contains(p.left.table), rl = l.Contains(p.right.table);
      if ((ls && rl) || (rs && ll)) out->push_back(static_cast<int>(i));
    }
    return;
  }
  EnsureAdjacency();
  const AdjacencyCache& adj = adjacency();
  const uint64_t lbits = l.bits();
  for (int a : s) {
    for (int b : TableSet(adj.adj[a] & lbits)) {
      const int key = PairKey(a, b);
      for (int32_t i = adj.pair_offset[key]; i < adj.pair_offset[key + 1];
           ++i) {
        out->push_back(adj.pair_preds[i]);
      }
    }
  }
  // Ascending predicate order is part of the contract (merge-candidate
  // construction depends on it); crossing lists are tiny, so this sort is
  // effectively a couple of swaps.
  std::sort(out->begin(), out->end());
}

void QueryGraph::InternalPredicates(TableSet s, std::vector<int>* out) const {
  EnsureAdjacency();
  const AdjacencyCache& adj = adjacency();
  out->clear();
  const uint64_t sbits = s.bits();
  for (int a : s) {
    // Only pairs (a, b) with a < b, so each internal edge is seen once.
    uint64_t higher = adj.adj[a] & sbits & ~((uint64_t{2} << a) - 1);
    for (int b : TableSet(higher)) {
      const int key = PairKey(a, b);
      for (int32_t i = adj.pair_offset[key]; i < adj.pair_offset[key + 1];
           ++i) {
        out->push_back(adj.pair_preds[i]);
      }
    }
  }
  std::sort(out->begin(), out->end());
}

bool QueryGraph::AreConnected(TableSet s, TableSet l) const {
  EnsureAdjacency();
  const AdjacencyCache& adj = adjacency();
  const uint64_t lbits = l.bits();
  for (int a : s) {
    if ((adj.adj[a] & lbits) != 0) return true;
  }
  return false;
}

bool QueryGraph::IsSubgraphConnected(TableSet s) const {
  if (s.size() <= 1) return !s.empty();
  EnsureAdjacency();
  const AdjacencyCache& adj = adjacency();
  const uint64_t sbits = s.bits();
  uint64_t reached = sbits & (~sbits + 1);  // lowest table of the set
  uint64_t frontier = reached;
  while (frontier != 0) {
    uint64_t next = 0;
    for (int t : TableSet(frontier)) next |= adj.adj[t];
    next &= sbits & ~reached;
    reached |= next;
    frontier = next;
  }
  return reached == sbits;
}

TableSet QueryGraph::Neighbors(TableSet s) const {
  EnsureAdjacency();
  const AdjacencyCache& adj = adjacency();
  uint64_t out = 0;
  for (int a : s) out |= adj.adj[a];
  return TableSet(out & ~s.bits());
}

double QueryGraph::LocalSelectivity(int t) const {
  double sel = 1.0;
  for (const LocalPredicate& p : local_preds_) {
    if (p.column.table == t) sel *= p.selectivity;
  }
  return sel;
}

const ColumnEquivalence& QueryGraph::GlobalEquivalence() const {
  if (global_equiv_valid_.Load()) return global_equiv_cache();
  {
    MutexLock lock(cache_mu_.mu);
    if (!global_equiv_valid_.Load()) {
      global_equiv_ = ColumnEquivalence();
      for (const JoinPredicate& p : join_preds_) {
        if (p.kind == JoinKind::kInner) {
          global_equiv_.AddEquivalence(p.left, p.right);
        }
      }
      // Flattened so warm Find() lookups never path-halve — the shared
      // instance stays write-free under concurrent readers.
      global_equiv_.Flatten();
      global_equiv_valid_.Store(true);
    }
  }
  return global_equiv_cache();
}

int QueryGraph::DeriveTransitiveClosure() {
  // Only inner-join predicates participate: equality does not transit
  // through the null-producing side of an outer join.
  ColumnEquivalence equiv;
  for (const JoinPredicate& p : join_preds_) {
    if (p.kind == JoinKind::kInner) equiv.AddEquivalence(p.left, p.right);
  }
  int added = 0;
  equiv.ForEachClassPair([&](ColumnRef a, ColumnRef b) {
    if (a.table == b.table) return;  // no self-joins from closure
    for (const JoinPredicate& p : join_preds_) {
      if ((p.left == a && p.right == b) || (p.left == b && p.right == a)) {
        return;
      }
    }
    JoinPredicate np;
    np.left = a;
    np.right = b;
    np.kind = JoinKind::kInner;
    np.derived = true;
    np.selectivity = 1.0 / std::max({ColumnNdv(a), ColumnNdv(b), 1.0});
    join_preds_.push_back(np);
    ++added;
  });
  if (added > 0) {
    global_equiv_valid_.Store(false);
    // The new derived predicates are join edges too: the adjacency CSR
    // must pick them up (it previously went stale here).
    adj_valid_.Store(false);
  }
  return added;
}

bool QueryGraph::OuterEnabled(TableSet s) const {
  EnsureAdjacency();
  const AdjacencyCache& adj = adjacency();
  if ((adj.inner_only_mask & s.bits()) != 0 && s != AllTables()) {
    return false;
  }
  for (int pi : adj.outer_pred_indices) {
    const JoinPredicate& p = join_preds_[pi];
    // The null-producing side may not lead a join until its preserved
    // partner has been joined in.
    if (s.Contains(p.right.table) && !s.Contains(p.left.table)) return false;
  }
  return true;
}

bool QueryGraph::OuterJoinOrientationOk(TableSet s, TableSet l) const {
  EnsureAdjacency();
  for (int pi : adjacency().outer_pred_indices) {
    const JoinPredicate& p = join_preds_[pi];
    bool preserved_in_s = s.Contains(p.left.table);
    bool null_in_l = l.Contains(p.right.table);
    bool preserved_in_l = l.Contains(p.left.table);
    bool null_in_s = s.Contains(p.right.table);
    // If the predicate crosses the cut, the null-producing table must be in
    // the inner input `l`.
    if (preserved_in_s && null_in_s) continue;
    if (preserved_in_l && null_in_l) continue;
    if (preserved_in_s && null_in_l) continue;       // correct orientation
    if (preserved_in_l && null_in_s) return false;   // reversed: illegal
  }
  return true;
}

std::string QueryGraph::ToString() const {
  std::vector<std::string> parts;
  for (int i = 0; i < num_tables(); ++i) {
    parts.push_back(StrFormat("t%d=%s(%s)", i, tables_[i].alias.c_str(),
                              tables_[i].table->name().c_str()));
  }
  std::string out = "tables: " + Join(parts, ", ") + "\n";
  parts.clear();
  for (const JoinPredicate& p : join_preds_) parts.push_back(p.ToString());
  out += "joins: " + Join(parts, "; ") + "\n";
  parts.clear();
  for (const LocalPredicate& p : local_preds_) parts.push_back(p.ToString());
  out += "locals: " + Join(parts, "; ");
  return out;
}

}  // namespace cote

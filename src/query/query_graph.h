#ifndef COTE_QUERY_QUERY_GRAPH_H_
#define COTE_QUERY_QUERY_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/mutex.h"
#include "common/table_set.h"
#include "common/thread_annotations.h"
#include "query/column_ref.h"
#include "query/equivalence.h"
#include "query/predicate.h"

namespace cote {

/// \brief One entry of a query's FROM list.
struct QueryTableRef {
  const Table* table = nullptr;
  std::string alias;
  /// True for table refs that can never serve as the outer input of a join
  /// (correlated derived tables / subquery results, §4 item 3 of the paper).
  bool inner_only = false;
};

/// \brief The bound, optimizer-facing representation of one query block.
///
/// A QueryGraph contains the FROM tables, the equi-join edges (possibly
/// cyclic, possibly outer), local filter predicates with selectivities, and
/// the ORDER BY / GROUP BY interest lists. It is produced either by the SQL
/// binder or programmatically via QueryBuilder, and consumed by both the
/// optimizer and the compilation-time estimator.
///
/// Thread safety: concurrent const access from multiple threads is safe —
/// the lazy adjacency / global-equivalence caches are built under an
/// internal per-graph mutex with double-checked atomic valid flags, and
/// the global equivalence is flattened at build so warm lookups are pure
/// reads. (A SessionPool batch may contain the same graph pointer many
/// times.) Mutating a graph while any other thread accesses it is a data
/// race, as for any container. The cache *builds* are statically checked
/// (`adj_` / `global_equiv_` are COTE_GUARDED_BY the cache mutex); the
/// warm unguarded reads go through exactly two annotated escape points
/// (adjacency() / global_equiv_cache()) whose safety argument is the
/// acquire/release CacheFlag publication, which the static analysis
/// cannot model — see DESIGN.md §13.
class QueryGraph {
 public:
  QueryGraph() = default;

  // ---- Construction -------------------------------------------------------

  /// Appends a table reference; returns its index in the FROM list.
  int AddTableRef(const Table* table, std::string alias);
  /// Sizes the table-ref and predicate vectors for the given counts.
  void Reserve(size_t tables, size_t join_preds, size_t local_preds) {
    tables_.reserve(tables);
    join_preds_.reserve(join_preds);
    local_preds_.reserve(local_preds);
  }
  void AddJoinPredicate(JoinPredicate pred) {
    join_preds_.push_back(pred);
    adj_valid_.Store(false);
    global_equiv_valid_.Store(false);
  }
  void AddLocalPredicate(LocalPredicate pred) {
    local_preds_.push_back(pred);
  }
  void SetOrderBy(std::vector<ColumnRef> cols) { order_by_ = std::move(cols); }
  void SetGroupBy(std::vector<ColumnRef> cols) { group_by_ = std::move(cols); }
  void set_has_aggregation(bool v) { has_aggregation_ = v; }
  void set_fetch_first(int64_t n) { fetch_first_ = n; }
  void MarkInnerOnly(int table_ref) {
    tables_[table_ref].inner_only = true;
    adj_valid_.Store(false);
  }

  /// Derives implied equality predicates through transitive closure of the
  /// inner-join equivalence classes (`A.x=B.y ∧ B.y=C.z ⇒ A.x=C.z`). This is
  /// what commercial systems do and it introduces cycles into the join graph
  /// (§2.2). Returns the number of predicates added.
  int DeriveTransitiveClosure();

  // ---- Basic accessors ----------------------------------------------------

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const QueryTableRef& table_ref(int i) const { return tables_[i]; }
  TableSet AllTables() const { return TableSet::FirstN(num_tables()); }

  const std::vector<JoinPredicate>& join_predicates() const {
    return join_preds_;
  }
  const std::vector<LocalPredicate>& local_predicates() const {
    return local_preds_;
  }
  const std::vector<ColumnRef>& order_by() const { return order_by_; }
  const std::vector<ColumnRef>& group_by() const { return group_by_; }
  bool has_aggregation() const { return has_aggregation_; }
  /// FETCH FIRST n ROWS ONLY; -1 when absent. When set, the pipelinable
  /// property (paper Table 1) becomes interesting: a plan that streams its
  /// first rows without SORTs/hash builds can stop early.
  int64_t fetch_first() const { return fetch_first_; }
  bool wants_first_rows() const { return fetch_first_ > 0; }

  /// NDV of a column, from catalog statistics.
  double ColumnNdv(ColumnRef c) const;
  /// Debug name like "l.l_orderkey".
  std::string ColumnName(ColumnRef c) const;

  // ---- Join-graph queries --------------------------------------------------

  /// Indices (into join_predicates()) of predicates with one side in `s`
  /// and the other in `l`.
  std::vector<int> ConnectingPredicates(TableSet s, TableSet l) const;

  /// Allocation-free overload for the enumeration hot path: clears `*out`
  /// and fills it with the connecting predicate indices in ascending
  /// order. Uses the precomputed per-table-pair predicate lists, so the
  /// cost is proportional to |s| plus the number of crossing edges — not
  /// to the total predicate count.
  void ConnectingPredicates(TableSet s, TableSet l, std::vector<int>* out)
      const;

  /// Indices (ascending) of predicates with BOTH sides inside `s` — the
  /// predicates applied within a MEMO entry (used to derive the entry's
  /// column equivalence without scanning the whole predicate list).
  void InternalPredicates(TableSet s, std::vector<int>* out) const;

  /// True if at least one join predicate crosses the cut (s, l).
  bool AreConnected(TableSet s, TableSet l) const;

  /// True if the induced subgraph on `s` is connected (singletons are).
  bool IsSubgraphConnected(TableSet s) const;

  /// Tables outside `s` joined to some table inside `s`.
  TableSet Neighbors(TableSet s) const;

  /// Combined selectivity of all local predicates on table `t`.
  double LocalSelectivity(int t) const;

  /// Column equivalence induced by ALL inner-join predicates of the query.
  const ColumnEquivalence& GlobalEquivalence() const;

  // ---- Outer-join / eligibility --------------------------------------------

  /// Whether the table set `s` may serve as the outer input of a join:
  /// false if `s` contains the null-producing side of an outer join whose
  /// preserved side is not yet in `s`, or contains an inner-only table while
  /// not being the full query. Mirrors DB2's logical "outer enabled" mark.
  bool OuterEnabled(TableSet s) const;

  /// True if joining `s` (outer) with `l` (inner) is legal with respect to
  /// outer-join constraints: any outer-join predicate crossing the cut must
  /// have its null-producing table in `l`.
  bool OuterJoinOrientationOk(TableSet s, TableSet l) const;

  /// Debug rendering of the whole graph.
  std::string ToString() const;

 private:
  /// Precomputed join-graph adjacency (built lazily, invalidated whenever
  /// tables or predicates change). `adj[t]` is the neighbor bitmask of
  /// table t; the per-table-pair predicate indices live in a CSR layout
  /// (`pair_offset` indexes by a*n+b with a < b into `pair_preds`), so
  /// connectivity queries are bitwise operations and predicate lookups
  /// touch only the crossing pairs.
  struct AdjacencyCache {
    std::vector<uint64_t> adj;
    std::vector<int32_t> pair_offset;
    std::vector<int32_t> pair_preds;
    uint64_t inner_only_mask = 0;
    std::vector<int> outer_pred_indices;  ///< kLeftOuter predicate indices
  };
  void EnsureAdjacency() const COTE_EXCLUDES(cache_mu_.mu);
  /// Unguarded warm read of the published adjacency cache. Safe only
  /// after EnsureAdjacency() returned: the builder stores the cache
  /// fields, then release-stores adj_valid_; every path here first
  /// acquire-loaded the flag (or built under the mutex), so the read
  /// cannot observe a partial build. This publication edge is invisible
  /// to -Wthread-safety, hence the single annotated escape.
  const AdjacencyCache& adjacency() const COTE_NO_THREAD_SAFETY_ANALYSIS {
    return adj_;
  }
  /// Same escape for the flattened global equivalence (write-free after
  /// publication; see GlobalEquivalence()).
  const ColumnEquivalence& global_equiv_cache() const
      COTE_NO_THREAD_SAFETY_ANALYSIS {
    return global_equiv_;
  }
  int PairKey(int a, int b) const {
    return (a < b ? a : b) * num_tables() + (a < b ? b : a);
  }

  std::vector<QueryTableRef> tables_;
  std::vector<JoinPredicate> join_preds_;
  std::vector<LocalPredicate> local_preds_;
  std::vector<ColumnRef> order_by_;
  std::vector<ColumnRef> group_by_;
  bool has_aggregation_ = false;
  int64_t fetch_first_ = -1;

  /// Copyable atomic valid flag for a lazy cache. Acquire/release pairs
  /// with the cache build under cache_mu_, so a reader that loads true is
  /// guaranteed to see the completed cache. Copying a graph copies the
  /// flag's value (copying while another thread accesses the source is a
  /// race, like any container copy).
  struct CacheFlag {
    std::atomic<bool> v{false};
    CacheFlag() = default;
    CacheFlag(const CacheFlag& o) : v(o.Load()) {}
    CacheFlag& operator=(const CacheFlag& o) {
      Store(o.Load());
      return *this;
    }
    bool Load() const { return v.load(std::memory_order_acquire); }
    void Store(bool b) { v.store(b, std::memory_order_release); }
  };
  /// Mutex serializing lazy-cache builds. Copies get a fresh mutex.
  struct CacheMutex {
    mutable Mutex mu;
    CacheMutex() = default;
    CacheMutex(const CacheMutex&) {}
    CacheMutex& operator=(const CacheMutex&) { return *this; }
  };

  mutable ColumnEquivalence global_equiv_ COTE_GUARDED_BY(cache_mu_.mu);
  mutable CacheFlag global_equiv_valid_;
  mutable AdjacencyCache adj_ COTE_GUARDED_BY(cache_mu_.mu);
  mutable CacheFlag adj_valid_;
  mutable CacheMutex cache_mu_;
};

}  // namespace cote

#endif  // COTE_QUERY_QUERY_GRAPH_H_

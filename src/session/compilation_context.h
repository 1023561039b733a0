#ifndef COTE_SESSION_COMPILATION_CONTEXT_H_
#define COTE_SESSION_COMPILATION_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "core/plan_counter.h"
#include "optimizer/cost/cardinality.h"
#include "optimizer/cost/cost_model.h"
#include "optimizer/enumerator.h"
#include "optimizer/memo.h"
#include "optimizer/optimizer.h"
#include "optimizer/parallel_enumerator.h"
#include "optimizer/properties/interesting_orders.h"
#include "query/query_graph.h"
#include "session/compilation_stats.h"

namespace cote {

/// \brief Per-query compilation state with cross-query arena reuse.
///
/// The context is the single owner of every model the pipeline consults —
/// the cost model (options-lifetime), the refined and simple cardinality
/// models, the interesting-order analysis, the session enumerator, and the
/// estimate-mode plan counter — plus the unified CompilationStats. Nothing
/// outside src/session/ constructs these models directly; callers obtain
/// them here so the optimize and estimate paths are guaranteed to see the
/// same configuration.
///
/// Reset(graph) binds the context to a query. Rebinding to a *different*
/// query rebinds every per-query component in place — the cardinality
/// models, the interesting-order analysis, the counter (entry-state arena
/// with its property slots), the enumerator's bitmaps — so their storage
/// survives: after the largest query has been seen, a cold estimate of a
/// same-or-smaller query allocates nothing. Re-binding the *same* query
/// (same object, same content fingerprint) is a warm no-op that
/// additionally keeps the counter's saturated property lists — the
/// cross-query extension of the zero-steady-state-allocation invariant
/// hotpath_alloc_test pins.
class CompilationContext {
 public:
  /// Adopts (and normalizes — see OptimizerOptions::Normalize) the
  /// optimizer configuration. The estimate-mode counter reads the
  /// normalized plan-generation options, so it counts for exactly the
  /// environment the optimizer plans for; `counter_options` holds only the
  /// counter's own ablation knobs.
  explicit CompilationContext(OptimizerOptions options,
                              PlanCounterOptions counter_options = {});

  CompilationContext(const CompilationContext&) = delete;
  CompilationContext& operator=(const CompilationContext&) = delete;

  /// Binds the context to `graph` (the pipeline's bind stage). Returns
  /// true for a warm no-op — same graph object whose content fingerprint
  /// is unchanged — in which case every lazily built model survives.
  ///
  /// Caveat: the fingerprint covers the graph's own content (tables,
  /// predicates with their selectivities, grouping/ordering, fetch-first)
  /// via the catalog Table pointers; mutating catalog *statistics* in
  /// place between binds of the same graph is not detected.
  bool Reset(const QueryGraph& graph);

  /// Drops all per-query bindings so the next Reset is cold. Benchmarks
  /// that want fresh-model timings per iteration use this.
  void Invalidate();

  /// Post-failure cleanup: drops the binding to the current query (graph
  /// pointer, fingerprint, per-query models) but — unlike Invalidate() —
  /// keeps the counter and enumerator objects, so their arenas survive.
  /// The pipeline calls this after a degraded or failed compile, leaving
  /// the context exactly as a cold Rebind would: the next query compiles
  /// bit-identically to a fresh session (partial state from the aborted
  /// run can never leak into a later result).
  void AbandonBinding();

  const OptimizerOptions& options() const { return options_; }

  /// The bound query; dies if no Reset() happened yet.
  const QueryGraph& graph() const;

  // Lazily materialized components, all bound to graph(). ----------------

  /// Options-lifetime: depends only on CostParams, never rebound.
  const CostModel& cost_model() const { return cost_; }
  /// Plan-mode cardinality (key/FD refinement on).
  const CardinalityModel& refined_cardinality();
  /// Estimate-mode cardinality (no refinement — the paper's prototype).
  const CardinalityModel& simple_cardinality();
  const InterestingOrders& interesting_orders();
  /// Estimate-mode visitor, bound to simple_cardinality(); warm across
  /// binds of the same query (ResetCounts() is the caller's job).
  PlanCounter& counter();
  /// Session-owned bottom-up enumerator (scratch reused across queries).
  JoinEnumerator& enumerator();

  // Parallel enumeration (options_.parallel_workers > 1). --------------

  /// Workers the bound query's enumeration will actually use: the
  /// configured parallel_workers when the eligibility gate passes
  /// (bottom-up search, 2..kGosperPartitionMaxTables tables), 1 — the
  /// exact serial code path — otherwise.
  int EffectiveParallelWorkers() const;

  /// Session-owned rank-parallel enumerator (persistent worker team,
  /// bitmap reused across queries). Only call when
  /// options().parallel_workers > 1.
  ParallelEnumerator& parallel_enumerator();

  /// Worker w's private estimate-mode counter, in shard mode against
  /// counter(). First use after a cold bind (re)builds all shard
  /// counters and their per-worker simple cardinality models (workers
  /// must not share one model: its memoization cache is unguarded);
  /// warm binds reuse everything, keeping warm estimates
  /// allocation-steady once each worker's cache has saturated.
  PlanCounter& shard_counter(int w);

  /// Runs join enumeration for the bound query over `visitor`, through
  /// the session enumerator when the options select bottom-up search and
  /// through the top-down dispatcher otherwise. A non-null `budget` makes
  /// the run cooperative (see JoinEnumerator::Run).
  EnumerationStats Enumerate(JoinVisitor* visitor,
                             ResourceBudget* budget = nullptr);

  /// Fresh plan-mode MEMO for the bound query. Plan-mode memos are
  /// per-compile by design: ownership passes to the OptimizeResult, which
  /// may outlive the session.
  std::shared_ptr<Memo> NewMemo();

  CompilationStats& stats() { return stats_; }
  const CompilationStats& stats() const { return stats_; }

  /// The session's resource budget: armed by the pipeline per governed
  /// compile, disarmed (a no-op at every checkpoint) otherwise. Owned here
  /// so it lives as long as everything that may hold a pointer to it.
  ResourceBudget& budget() { return budget_; }
  const ResourceBudget& budget() const { return budget_; }

 private:
  /// Clears every bound flag: each component rebinds on its next use.
  void UnbindComponents();

  /// Content hash of everything compilation output depends on: table
  /// identities and flags, join/local predicates (columns, kind, derived,
  /// selectivity bit patterns), grouping, ordering, aggregation,
  /// fetch-first.
  static uint64_t Fingerprint(const QueryGraph& graph);

  OptimizerOptions options_;
  PlanCounterOptions counter_options_;
  CostModel cost_;

  const QueryGraph* graph_ = nullptr;
  uint64_t fingerprint_ = 0;

  // Per-query components, built on first use and afterwards Rebind()-ed
  // in place on a cold bind so their storage survives (the bound_ flags
  // track whether that happened for the current query yet).
  std::optional<CardinalityModel> refined_card_;
  std::optional<CardinalityModel> simple_card_;
  std::optional<InterestingOrders> interesting_;
  std::optional<PlanCounter> counter_;
  std::optional<JoinEnumerator> enumerator_;
  bool refined_card_bound_ = false;
  bool simple_card_bound_ = false;
  bool interesting_bound_ = false;
  bool counter_bound_ = false;
  bool enumerator_bound_ = false;

  // Parallel-enumeration state. The enumerator (worker team + bitmap) is
  // options-lifetime; the shard counters and their cardinality models
  // Rebind in place across queries (storage reuse, like counter_).
  // Deques: stable addresses as they grow (the counters hold pointers to
  // their models).
  std::optional<ParallelEnumerator> parallel_enum_;
  std::deque<CardinalityModel> shard_simple_cards_;
  std::deque<PlanCounter> shard_counters_;
  bool shard_counters_bound_ = false;

  CompilationStats stats_;
  ResourceBudget budget_;
};

}  // namespace cote

#endif  // COTE_SESSION_COMPILATION_CONTEXT_H_

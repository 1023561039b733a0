#include "session/pipeline.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "common/fault_points.h"
#include "common/timer.h"
#include "optimizer/completion.h"
#include "optimizer/greedy_optimizer.h"
#include "optimizer/parallel_enumerator.h"

namespace cote {

namespace {

/// Plan-mode sharded visitor: one PlanGenerator per worker, each
/// generating into a private shard-mode Memo with a private
/// refined-cardinality model (CardinalityModel memoizes internally
/// without synchronization, so workers must not share one). Per-compile,
/// like the serial PlanGenerator; the memo owns its shards, so merged
/// entries and plans share the result's lifetime.
class ShardedPlanGeneration : public ShardedVisitor {
 public:
  ShardedPlanGeneration(const QueryGraph& graph, Memo* memo,
                        const CostModel& cost,
                        const InterestingOrders& interesting,
                        const PlanGenOptions& options, int workers)
      : memo_(memo) {
    memo_->PrepareShards(workers);
    for (int w = 0; w < workers; ++w) {
      cards_.emplace_back(graph, /*use_key_refinement=*/true);
    }
    for (int w = 0; w < workers; ++w) {
      gens_.emplace_back(graph, memo_->shard(w), cost,
                         cards_[static_cast<size_t>(w)], interesting,
                         options);
    }
  }

  JoinVisitor* Shard(int worker) override {
    return &gens_[static_cast<size_t>(worker)];
  }
  void SetShardBudget(int worker, ResourceBudget* budget) override {
    memo_->shard(worker)->set_budget(budget);
  }
  void MergeRank() override { memo_->AdoptShardRank(); }

  /// Folds every worker's counters and timers into `stats`, in worker
  /// order (each is worker-private during the run, so the sums are exact,
  /// not racy snapshots); returns the summed visitor seconds.
  double AddStatsTo(OptimizeStats* stats) const {
    double visitor_seconds = 0;
    for (const auto& g : gens_) visitor_seconds += g.AddStatsTo(stats);
    return visitor_seconds;
  }

 private:
  Memo* memo_;
  std::deque<CardinalityModel> cards_;  // non-movable; deque for stability
  std::deque<PlanGenerator> gens_;
};

/// Estimate-mode sharded visitor over the context's session-owned shard
/// counters (arena reuse across queries — warm estimates stay
/// allocation-steady). MergeRank adopts in worker order, replaying the
/// serial entry-creation order.
class ShardedPlanCounting : public ShardedVisitor {
 public:
  ShardedPlanCounting(CompilationContext* ctx, int workers)
      : ctx_(ctx), workers_(workers) {
    // Materialize every shard counter up front: worker threads must not
    // hit the lazy build path concurrently.
    for (int w = 0; w < workers_; ++w) ctx_->shard_counter(w);
  }

  JoinVisitor* Shard(int worker) override {
    return &ctx_->shard_counter(worker);
  }
  void SetShardBudget(int worker, ResourceBudget* budget) override {
    ctx_->shard_counter(worker).set_budget(budget);
  }
  void MergeRank() override {
    for (int w = 0; w < workers_; ++w) {
      ctx_->counter().AdoptShardRank(&ctx_->shard_counter(w));
    }
  }

 private:
  CompilationContext* ctx_;
  int workers_;
};

}  // namespace

StatusOr<OptimizeResult> CompilationPipeline::CompilePlan(
    const QueryGraph& graph, const ResourceLimits& limits) {
  if (graph.num_tables() == 0) {
    return Status::InvalidArgument("query has no tables");
  }
  // kLow ignores the budget by design (see the header): the greedy pass is
  // itself the degraded mode and runs in polynomial time.
  return ctx_->options().level == OptimizationLevel::kLow
             ? PlanLow(graph)
             : PlanHigh(graph, limits);
}

StatusOr<OptimizeResult> CompilationPipeline::CompilePlanGreedy(
    const QueryGraph& graph) {
  if (graph.num_tables() == 0) {
    return Status::InvalidArgument("query has no tables");
  }
  // Disarm any budget a previous governed compile left armed: PlanLow
  // never arms one itself, and its stage events read the budget's tripped
  // state — stale trip evidence must not leak into this run's observer.
  ctx_->budget().Disarm();
  return PlanLow(graph);
}

StatusOr<OptimizeResult> CompilationPipeline::PlanLow(
    const QueryGraph& graph) {
  StopWatch watch;
  StageSeconds stages;
  StopWatch stage;

  // ---- Bind.
  ctx_->Reset(graph);
  OptimizeResult result;
  result.memo = ctx_->NewMemo();
  const CostModel& cost = ctx_->cost_model();
  const CardinalityModel& card = ctx_->refined_cardinality();
  stages.bind = stage.ElapsedSeconds();
  Notify(CompileStage::kBind, stages.bind, /*estimate_mode=*/false);
  if (Status fault = ConsultFaultPoint(kFaultPlanBind, &graph); !fault.ok()) {
    ctx_->AbandonBinding();
    return fault;
  }

  // ---- Enumerate (the greedy pass is kLow's degenerate "enumeration":
  // one join order, no properties).
  stage.Restart();
  GreedyOptimizer greedy(graph, cost, card, result.memo.get());
  result.best_plan = greedy.Run();
  stages.enumerate = stage.ElapsedSeconds();
  Notify(CompileStage::kEnumerate, stages.enumerate, /*estimate_mode=*/false);
  if (result.best_plan == nullptr) {
    ctx_->AbandonBinding();
    return Status::Internal("greedy optimizer produced no plan");
  }
  if (Status fault = ConsultFaultPoint(kFaultPlanEnumerate, &graph);
      !fault.ok()) {
    ctx_->AbandonBinding();
    return fault;
  }

  // ---- Complete: kLow skips query completion by design (single plan, no
  // enforcers) — pinned by the golden equivalence tests.

  // ---- Finalize. The stage timer stops before the total is read: every
  // stage interval lies inside the total window, so the per-stage sum can
  // never exceed total_seconds (pinned by StageSumNeverExceedsTotal).
  stage.Restart();
  result.stats.best_cost = result.best_plan->cost;
  result.stats.plans_stored = 0;
  stages.finalize = stage.ElapsedSeconds();
  result.stats.total_seconds = watch.ElapsedSeconds();
  Notify(CompileStage::kFinalize, stages.finalize, /*estimate_mode=*/false);
  if (Status fault = ConsultFaultPoint(kFaultPlanFinalize, &graph);
      !fault.ok()) {
    ctx_->AbandonBinding();
    return fault;
  }
  ctx_->stats().RecordStages(stages);
  ++ctx_->stats().plans_compiled;
  return result;
}

StatusOr<OptimizeResult> CompilationPipeline::PlanHigh(
    const QueryGraph& graph, const ResourceLimits& limits) {
  StopWatch watch;
  StageSeconds stages;
  StopWatch stage;

  // A fresh budget per compile; fully unlimited limits arm nothing, so
  // `armed` stays null and every downstream path is the ungoverned one.
  ResourceBudget& budget = ctx_->budget();
  budget.Arm(limits);
  ResourceBudget* armed = budget.armed() ? &budget : nullptr;

  // ---- Bind.
  ctx_->Reset(graph);
  OptimizeResult result;
  result.memo = ctx_->NewMemo();
  Memo* memo = result.memo.get();
  const CostModel& cost = ctx_->cost_model();
  const CardinalityModel& card = ctx_->refined_cardinality();
  const InterestingOrders& interesting = ctx_->interesting_orders();
  PlanGenerator generator(graph, memo, cost, card, interesting,
                          ctx_->options().plangen);
  stages.bind = stage.ElapsedSeconds();
  Notify(CompileStage::kBind, stages.bind, /*estimate_mode=*/false);
  if (Status fault = ConsultFaultPoint(kFaultPlanBind, &graph); !fault.ok()) {
    ctx_->AbandonBinding();
    return fault;
  }

  // ---- Enumerate. The memo charges each generated plan while armed; the
  // pointer is cleared before any path lets the memo escape into the
  // result (which can outlive the session-owned budget). With
  // parallel_workers > 1 and an eligible query the rank-parallel
  // enumerator runs instead, generating through per-worker memo shards
  // (plans charged to per-worker budgets, folded at rank barriers);
  // otherwise this is the exact serial code path.
  StopWatch enum_watch;
  const int par_workers = ctx_->EffectiveParallelWorkers();
  std::optional<ShardedPlanGeneration> sharded;
  double busy_seconds = 0;
  memo->set_budget(armed);
  if (par_workers > 1) {
    sharded.emplace(graph, memo, cost, interesting,
                    ctx_->options().plangen, par_workers);
    ParallelEnumerationResult par = ctx_->parallel_enumerator().Run(
        graph, ctx_->options().enumeration, &*sharded, armed);
    result.stats.enumeration = par.stats;
    busy_seconds = par.busy_seconds;
  } else {
    result.stats.enumeration = ctx_->Enumerate(&generator, armed);
  }
  memo->set_budget(nullptr);
  double run_seconds = enum_watch.ElapsedSeconds();
  stages.enumerate = run_seconds;
  Notify(CompileStage::kEnumerate, stages.enumerate, /*estimate_mode=*/false);
  if (Status fault = ConsultFaultPoint(kFaultPlanEnumerate, &graph);
      !fault.ok()) {
    ctx_->AbandonBinding();
    return fault;
  }

  if (armed != nullptr && armed->tripped()) {
    if (limits.on_trip == BudgetAction::kFail) {
      Status trip = armed->TripStatus();
      ctx_->AbandonBinding();
      return trip;
    }
    return DegradeToGreedy(graph, watch, &stages, &result);
  }

  MemoEntry* top = memo->Find(graph.AllTables());
  if (top == nullptr || top->Cheapest() == nullptr) {
    ctx_->AbandonBinding();
    return Status::Internal(
        "no complete plan: join graph is disconnected and Cartesian "
        "products are disabled");
  }

  // ---- Complete ("other" work: aggregation and final ordering).
  stage.Restart();
  result.best_plan = CompleteQuery(graph, memo, top, cost);
  stages.complete = stage.ElapsedSeconds();
  Notify(CompileStage::kComplete, stages.complete, /*estimate_mode=*/false);
  if (Status fault = ConsultFaultPoint(kFaultPlanComplete, &graph);
      !fault.ok()) {
    ctx_->AbandonBinding();
    return fault;
  }

  // ---- Finalize: statistics. One fold fills the generator's counters
  // and timers: the serial generator's, or every worker's in worker order.
  stage.Restart();
  OptimizeStats& st = result.stats;
  const double visitor_seconds = sharded.has_value()
                                     ? sharded->AddStatsTo(&st)
                                     : generator.AddStatsTo(&st);
  st.enum_seconds = std::max(0.0, run_seconds - visitor_seconds);
  st.parallel_workers = par_workers;
  st.enumeration_busy_seconds = busy_seconds;
  st.plans_stored = memo->plans_stored();
  st.memo_entries = memo->num_entries();
  st.memo_bytes = memo->ApproxMemoryBytes();
  st.best_cost = result.best_plan->cost;
  // Stage timer stops before the total snapshot; see PlanLow.
  stages.finalize = stage.ElapsedSeconds();
  st.total_seconds = watch.ElapsedSeconds();
  Notify(CompileStage::kFinalize, stages.finalize, /*estimate_mode=*/false);
  // The finalize fault fires before the run is recorded, so a failed
  // compile never counts as a completed one.
  if (Status fault = ConsultFaultPoint(kFaultPlanFinalize, &graph);
      !fault.ok()) {
    ctx_->AbandonBinding();
    return fault;
  }
  ctx_->stats().RecordStages(stages);
  ++ctx_->stats().plans_compiled;
  return result;
}

StatusOr<OptimizeResult> CompilationPipeline::DegradeToGreedy(
    const QueryGraph& graph, StopWatch& watch, StageSeconds* stages,
    OptimizeResult* result) {
  ResourceBudget& budget = ctx_->budget();
  StopWatch stage;

  // Greedy fallback, charged to the enumerate stage (it replaces the cut
  // enumeration): a fresh memo, because the partial DP memo may have been
  // abandoned mid-entry and its plans must not leak into the result.
  result->memo = ctx_->NewMemo();
  GreedyOptimizer greedy(graph, ctx_->cost_model(),
                         ctx_->refined_cardinality(), result->memo.get());
  result->best_plan = greedy.Run();
  stages->enumerate += stage.ElapsedSeconds();
  if (result->best_plan == nullptr) {
    ctx_->AbandonBinding();
    return Status::Internal("greedy fallback produced no plan");
  }

  // ---- Complete: skipped, exactly as in every kLow compile (single
  // plan, no enforcers) — so no kComplete stage event fires either.

  // ---- Finalize: stats in kLow shape (the DP counters would describe
  // the abandoned partial run, not the returned plan), except the
  // enumeration counters, which faithfully cover the prefix that ran.
  stage.Restart();
  result->degraded = true;
  result->tripped_limit = budget.tripped_limit();
  result->degraded_stage = CompileStage::kEnumerate;
  result->stats.best_cost = result->best_plan->cost;
  result->stats.plans_stored = 0;
  stages->finalize = stage.ElapsedSeconds();
  result->stats.total_seconds = watch.ElapsedSeconds();
  Notify(CompileStage::kFinalize, stages->finalize, /*estimate_mode=*/false);
  ctx_->stats().RecordStages(*stages);
  ++ctx_->stats().plans_compiled;
  ++ctx_->stats().degraded_runs;
  // Drop the binding: the next compile — any query, this session — starts
  // cold and produces bit-identical output to a fresh session's.
  ctx_->AbandonBinding();
  return std::move(*result);
}

CompileTimeEstimate CompilationPipeline::CompileEstimate(
    const QueryGraph& graph, const TimeModel& time_model,
    const ResourceLimits& limits) {
  StopWatch watch;
  StageSeconds stages;
  StopWatch stage;
  CompileTimeEstimate out;

  ResourceBudget& budget = ctx_->budget();
  budget.Arm(limits);
  ResourceBudget* armed = budget.armed() ? &budget : nullptr;

  // ---- Bind: warm when the same query was just estimated (no heap
  // traffic past the first estimate — the session alloc test's subject).
  // No fault points in estimate mode: CompileEstimate has no Status
  // channel, and inventing one for injection would govern the tail
  // wagging the dog.
  ctx_->Reset(graph);
  PlanCounter& counter = ctx_->counter();
  counter.ResetCounts();
  stages.bind = stage.ElapsedSeconds();
  Notify(CompileStage::kBind, stages.bind, /*estimate_mode=*/true);

  // ---- Enumerate (plan-counting visitor — §3.1's other half). The
  // counter charges each counted plan while armed. With
  // parallel_workers > 1 and an eligible query the rank-parallel
  // enumerator counts through per-worker shard counters (adopted into
  // `counter` at every rank barrier, so the merged counts and entry
  // states are bit-identical to serial); otherwise the exact serial path.
  stage.Restart();
  const int par_workers = ctx_->EffectiveParallelWorkers();
  counter.set_budget(armed);
  if (par_workers > 1) {
    ShardedPlanCounting sharded(ctx_, par_workers);
    ParallelEnumerationResult par = ctx_->parallel_enumerator().Run(
        graph, ctx_->options().enumeration, &sharded, armed);
    out.enumeration = par.stats;
    out.parallel_workers = par_workers;
    out.enumeration_busy_seconds = par.busy_seconds;
  } else {
    out.enumeration = ctx_->Enumerate(&counter, armed);
  }
  counter.set_budget(nullptr);
  stages.enumerate = stage.ElapsedSeconds();
  Notify(CompileStage::kEnumerate, stages.enumerate, /*estimate_mode=*/true);

  const bool tripped = armed != nullptr && armed->tripped();
  if (!tripped) {
    // ---- Complete, counted: what plan mode's completion stage would add.
    // A tripped run skips it (and its stage event), mirroring plan mode's
    // degraded path.
    stage.Restart();
    out.completion_plans = CountCompletionPlans(graph);
    stages.complete = stage.ElapsedSeconds();
    Notify(CompileStage::kComplete, stages.complete, /*estimate_mode=*/true);
  }

  // ---- Finalize: counts → seconds via the §3.5 time model. For a
  // tripped run the counts cover only the enumeration prefix, so the
  // derived seconds/bytes are lower bounds — flagged by `degraded`.
  stage.Restart();
  out.plan_estimates = counter.estimated_plans();
  out.estimated_seconds = time_model.EstimateSeconds(out.plan_estimates);
  out.plan_slots = counter.TotalPlanSlots();
  out.estimated_memo_bytes = out.plan_slots * CompileTimeEstimate::kBytesPerPlan;
  if (tripped) {
    out.degraded = true;
    out.tripped_limit = budget.tripped_limit();
    out.degraded_stage = CompileStage::kEnumerate;
  }
  // Stage timer stops before the total snapshot; see PlanLow.
  stages.finalize = stage.ElapsedSeconds();
  out.estimation_seconds = watch.ElapsedSeconds();
  Notify(CompileStage::kFinalize, stages.finalize, /*estimate_mode=*/true);
  ctx_->stats().RecordStages(stages);
  ++ctx_->stats().estimates_run;
  if (tripped) {
    ++ctx_->stats().degraded_runs;
    // The counter's entry state covers a cut-off run; abandoning the
    // binding forces a cold rebuild so the next estimate (same query or
    // not) matches a fresh session bit for bit.
    ctx_->AbandonBinding();
  }
  return out;
}

void CompilationPipeline::Notify(CompileStage stage, double seconds,
                                 bool estimate_mode) {
  if (observer_ == nullptr) return;
  const ResourceBudget& budget = ctx_->budget();
  StageEvent event;
  event.stage = stage;
  event.seconds = seconds;
  event.estimate_mode = estimate_mode;
  event.budget_tripped = budget.tripped();
  event.tripped_limit = budget.tripped_limit();
  observer_(observer_ctx_, event);
}

}  // namespace cote

#ifndef COTE_SESSION_PIPELINE_H_
#define COTE_SESSION_PIPELINE_H_

#include "common/resource_budget.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/time_model.h"
#include "optimizer/optimizer.h"
#include "session/compilation_context.h"
#include "session/compilation_stats.h"

namespace cote {

/// One completed pipeline stage, as reported to a stage observer.
struct StageEvent {
  CompileStage stage = CompileStage::kNone;
  /// Wall seconds the stage took (the same interval RecordStages sums).
  double seconds = 0;
  /// True for estimate-mode runs, false for plan-mode compiles.
  bool estimate_mode = false;
  /// Budget state *after* the stage: once a limit trips, every later
  /// event of the run carries it — a degraded compile's trace reads
  /// bind(ok) → enumerate(tripped) → finalize(tripped).
  bool budget_tripped = false;
  BudgetLimit tripped_limit = BudgetLimit::kNone;
};

/// Stage-observer callback. A raw function pointer plus context — not
/// std::function — so installing, clearing, and (above all) *not*
/// installing one stays allocation-free; with no observer installed the
/// per-stage cost is a single null check.
using StageObserverFn = void (*)(void* ctx, const StageEvent& event);

/// \brief The staged compilation pipeline: bind → enumerate → complete →
/// finalize.
///
/// Both compilation modes run the same four stages over the shared
/// CompilationContext — the paper's visitor symmetry (§3.1) lifted to the
/// whole compile:
///
///   stage      | plan mode                    | estimate mode
///   -----------+------------------------------+---------------------------
///   bind       | context reset, models        | context reset, counter
///   enumerate  | joins → PlanGenerator        | joins → PlanCounter
///   complete   | CompleteQuery (group-by/sort | CountCompletionPlans
///              | enforcer plans)              | (the same plans, counted)
///   finalize   | OptimizeStats fill           | TimeModel conversion
///
/// Per-stage wall times land in the context's CompilationStats.
///
/// Resource governance: every compile arms the context's ResourceBudget
/// with its `limits` before running; the default, unlimited limits arm
/// nothing, so every downstream path is the ungoverned one. The enumerate
/// stage is the cooperative
/// cancellation region; when a limit trips there, plan mode either falls
/// back to the greedy optimizer (BudgetAction::kGreedyFallback — the
/// result is a valid plan flagged `degraded`) or fails with the budget's
/// Status (kFail), and estimate mode returns the partial counts flagged
/// `degraded`. Either way the context abandons its binding afterwards, so
/// the next compile is bit-identical to one on a fresh session.
///
/// Fault points: plan-mode stage boundaries consult the process-global
/// fault registry (common/fault_points.h) — a no-op unless a test
/// installed a hook. Estimate mode has no Status channel, so it consults
/// nothing.
class CompilationPipeline {
 public:
  /// `context` must outlive the pipeline; the pipeline itself is
  /// stateless between calls (the observer is configuration, not state).
  explicit CompilationPipeline(CompilationContext* context)
      : ctx_(context) {}

  /// Plan mode. Ungoverned, results and stats are bit-identical to the
  /// pre-session Optimizer (the golden equivalence tests are the oracle).
  /// At kLow the limits are ignored by design: the greedy pass *is* the
  /// degraded mode, and governing it would leave nothing to fall back to.
  StatusOr<OptimizeResult> CompilePlan(const QueryGraph& graph,
                                       const ResourceLimits& limits = {});

  /// Greedy-only compile regardless of the configured optimization level:
  /// the kLow pass (one join order, no property enumeration, no budget,
  /// no estimation) on a session whose options say kHigh. This is the
  /// service's bottom degradation tier — when a query has waited past its
  /// patience, running the polynomial-time pass beats shedding it, and
  /// beats paying for DP it no longer merits. Same fault points and
  /// observer events as any kLow compile.
  StatusOr<OptimizeResult> CompilePlanGreedy(const QueryGraph& graph);

  /// Estimate mode. Allocation-free in steady state, armed or not: a warm
  /// context bind plus a saturated counter re-run touch no heap. A tripped
  /// limit ends the counting run early and flags the (partial,
  /// lower-bound) estimate `degraded`.
  CompileTimeEstimate CompileEstimate(const QueryGraph& graph,
                                      const TimeModel& time_model,
                                      const ResourceLimits& limits = {});

  /// Installs (or, with fn = nullptr, removes) the per-stage observer.
  /// The callback fires synchronously at the end of every stage that ran;
  /// stages a run skips (complete at kLow, complete after a budget trip)
  /// produce no event.
  void SetStageObserver(StageObserverFn fn, void* ctx) {
    observer_ = fn;
    observer_ctx_ = ctx;
  }

 private:
  StatusOr<OptimizeResult> PlanLow(const QueryGraph& graph);
  StatusOr<OptimizeResult> PlanHigh(const QueryGraph& graph,
                                    const ResourceLimits& limits);
  /// Tripped-budget fallback of PlanHigh: reruns the query through the
  /// greedy optimizer on a fresh memo and finalizes a degraded result.
  StatusOr<OptimizeResult> DegradeToGreedy(const QueryGraph& graph,
                                           StopWatch& watch,
                                           StageSeconds* stages,
                                           OptimizeResult* result);
  /// Reports one completed stage to the observer (no-op when none).
  void Notify(CompileStage stage, double seconds, bool estimate_mode);

  CompilationContext* ctx_;
  StageObserverFn observer_ = nullptr;
  void* observer_ctx_ = nullptr;
};

}  // namespace cote

#endif  // COTE_SESSION_PIPELINE_H_

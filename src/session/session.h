#ifndef COTE_SESSION_SESSION_H_
#define COTE_SESSION_SESSION_H_

#include "common/status.h"
#include "core/time_model.h"
#include "optimizer/optimizer.h"
#include "query/multi_block.h"
#include "session/compilation_context.h"
#include "session/compilation_stats.h"
#include "session/pipeline.h"

namespace cote {

/// \brief One query-compilation session: the single entry point through
/// which everything in this library compiles or estimates a query.
///
///   CompilationSession session(options);
///   StatusOr<OptimizeResult> plan = session.Optimize(graph);   // plan mode
///   CompileTimeEstimate est = session.Estimate(graph, model);  // §3 mode
///
/// The session owns a CompilationContext (models, arenas, stats) and
/// drives the staged CompilationPipeline over it. Compiling a workload
/// through one session reuses the context's arenas across queries —
/// allocation-steady batch runs — and repeated estimates of the *same*
/// query are warm: zero steady-state allocations, enforced by
/// tests/session/session_alloc_test.cc. Results are bit-identical to
/// per-query construction throughout (the golden equivalence tests are
/// the oracle). Not thread-safe; use one session per thread.
class CompilationSession {
 public:
  explicit CompilationSession(OptimizerOptions options = {},
                              PlanCounterOptions counter_options = {})
      : context_(std::move(options), counter_options),
        pipeline_(&context_) {}

  // Not copyable/movable: the pipeline holds a pointer into the context.
  CompilationSession(const CompilationSession&) = delete;
  CompilationSession& operator=(const CompilationSession&) = delete;

  /// Plan mode: full compilation to an executable plan. Under finite
  /// `limits` the compile is cancelled cooperatively once a limit trips,
  /// then either degrades to the greedy plan (BudgetAction::kGreedyFallback,
  /// the default — ok() with OptimizeResult::degraded set) or fails with
  /// the budget's Status. The default, unlimited limits arm nothing.
  StatusOr<OptimizeResult> Optimize(const QueryGraph& graph,
                                    const ResourceLimits& limits = {}) {
    return pipeline_.CompilePlan(graph, limits);
  }

  /// Greedy-only plan mode, ignoring the session's optimization level:
  /// the polynomial-time kLow pass with no estimation and no budget. The
  /// compile service's bottom degradation tier (see
  /// CompilationPipeline::CompilePlanGreedy).
  StatusOr<OptimizeResult> OptimizeGreedy(const QueryGraph& graph) {
    return pipeline_.CompilePlanGreedy(graph);
  }

  /// Estimate mode: the paper's plan-counting pass; `time_model` converts
  /// join-plan counts to seconds (§3.5). A tripped limit ends the counting
  /// run early and returns the partial counts flagged
  /// CompileTimeEstimate::degraded.
  CompileTimeEstimate Estimate(const QueryGraph& graph,
                               const TimeModel& time_model,
                               const ResourceLimits& limits = {}) {
    return pipeline_.CompileEstimate(graph, time_model, limits);
  }

  /// Multi-block queries (§3.3): each block is optimized with its own
  /// MEMO, so the estimates (plans, time, memory) sum over the blocks.
  CompileTimeEstimate Estimate(const MultiBlockQuery& query,
                               const TimeModel& time_model);

  /// Installs (or removes, with fn = nullptr) a per-stage observer on the
  /// underlying pipeline; see CompilationPipeline::SetStageObserver.
  void SetStageObserver(StageObserverFn fn, void* ctx) {
    pipeline_.SetStageObserver(fn, ctx);
  }

  /// The models and options behind this session — the only sanctioned way
  /// to reach the cost/cardinality models outside src/session/.
  CompilationContext& context() { return context_; }
  const CompilationContext& context() const { return context_; }

  const CompilationStats& stats() const { return context_.stats(); }

 private:
  CompilationContext context_;
  CompilationPipeline pipeline_;
};

}  // namespace cote

#endif  // COTE_SESSION_SESSION_H_

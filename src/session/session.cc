#include "session/session.h"

#include <algorithm>

namespace cote {

namespace {

/// Folds one block's estimate into the multi-block total: sums, the widest
/// worker team any block ran with, and the degraded flag (the total is
/// degraded if any block was, carrying the first tripped block's limit and
/// stage).
void FoldBlock(const CompileTimeEstimate& e, CompileTimeEstimate* total) {
  total->plan_estimates += e.plan_estimates;
  total->enumeration.joins_unordered += e.enumeration.joins_unordered;
  total->enumeration.joins_ordered += e.enumeration.joins_ordered;
  total->enumeration.entries_created += e.enumeration.entries_created;
  total->estimated_seconds += e.estimated_seconds;
  total->estimation_seconds += e.estimation_seconds;
  total->estimated_memo_bytes += e.estimated_memo_bytes;
  total->plan_slots += e.plan_slots;
  total->completion_plans += e.completion_plans;
  total->parallel_workers =
      std::max(total->parallel_workers, e.parallel_workers);
  total->enumeration_busy_seconds += e.enumeration_busy_seconds;
  if (e.degraded && !total->degraded) {
    total->degraded = true;
    total->tripped_limit = e.tripped_limit;
    total->degraded_stage = e.degraded_stage;
  }
}

}  // namespace

CompileTimeEstimate CompilationSession::Estimate(const MultiBlockQuery& query,
                                                 const TimeModel& time_model) {
  CompileTimeEstimate total;
  for (const QueryGraph* block : query.AllBlocks()) {
    FoldBlock(Estimate(*block, time_model), &total);
  }
  return total;
}

}  // namespace cote

#ifndef COTE_CORE_MEMORY_ESTIMATOR_H_
#define COTE_CORE_MEMORY_ESTIMATOR_H_

#include "core/estimator.h"
#include "optimizer/optimizer.h"

namespace cote {

/// \brief §6.2: estimating optimizer memory consumption before optimizing.
///
/// Assuming each stored plan occupies roughly the same space, the MEMO
/// memory needed at a level is lower-bounded by the summed interesting
/// property list lengths across entries times the per-plan size — which the
/// plan-estimate pass computes as a by-product. A meta-optimizer can skip a
/// level whose lower bound already exceeds the memory budget.
struct MemoryEstimate {
  int64_t estimated_bytes = 0;  ///< lower bound from property lists
  int64_t plan_slots = 0;       ///< estimated number of stored plans
};

class MemoryEstimator {
 public:
  explicit MemoryEstimator(const OptimizerOptions& options)
      : estimator_(TimeModel{}, options) {}

  MemoryEstimate Estimate(const QueryGraph& graph) const {
    CompileTimeEstimate est = estimator_.Estimate(graph);
    return MemoryEstimate{est.estimated_memo_bytes, est.plan_slots};
  }

  /// True if optimization at this level cannot fit into `budget_bytes` —
  /// the lower bound alone exceeds it, so there is no point starting.
  bool ExceedsBudget(const QueryGraph& graph, int64_t budget_bytes) const {
    return Estimate(graph).estimated_bytes > budget_bytes;
  }

 private:
  CompileTimeEstimator estimator_;
};

}  // namespace cote

#endif  // COTE_CORE_MEMORY_ESTIMATOR_H_

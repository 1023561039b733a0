#ifndef COTE_CORE_MULTILEVEL_H_
#define COTE_CORE_MULTILEVEL_H_

#include <vector>

#include "core/estimator.h"
#include "session/session.h"

namespace cote {

/// \brief §6.2: piggybacked estimation of several optimization levels in a
/// single enumeration pass.
///
/// As long as the highest level's search space subsumes the others (full
/// bushy ⊇ composite-inner ≤ k ⊇ left-deep), one run of the enumerator at
/// the highest level can classify each enumerated join by the smallest
/// level that would also enumerate it — a join with composite-inner size m
/// belongs to every level with limit ≥ m — and accumulate per-level plan
/// counts simultaneously, amortizing the estimation overhead.
class MultiLevelEstimator {
 public:
  /// `inner_limits` defines the levels, e.g. {1, 2, 64}: left-deep,
  /// inner ≤ 2, full bushy. Must be sorted ascending; the largest is the
  /// level actually enumerated.
  MultiLevelEstimator(const TimeModel& time_model,
                      OptimizerOptions base_options,
                      std::vector<int> inner_limits);

  struct LevelEstimate {
    int inner_limit = 0;
    JoinTypeCounts plan_estimates;
    int64_t joins_ordered = 0;
    double estimated_seconds = 0;
  };

  struct Result {
    std::vector<LevelEstimate> levels;
    /// Overhead of the single shared pass.
    double estimation_seconds = 0;
  };

  Result Estimate(const QueryGraph& graph) const;

 private:
  TimeModel time_model_;
  std::vector<int> inner_limits_;
  /// Source of the per-query models (simple cardinality, interesting
  /// orders) and of the normalized plan-generation options; the per-level
  /// counters are built on top of it. Mutable: Estimate() is const in
  /// its results while the context rebinds underneath.
  mutable CompilationSession session_;
};

}  // namespace cote

#endif  // COTE_CORE_MULTILEVEL_H_

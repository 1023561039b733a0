#include "core/multilevel.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/timer.h"

namespace cote {

namespace {

/// Fans enumerator callbacks out to one PlanCounter per level, filtering
/// OnJoin by each level's composite-inner limit.
class DemuxVisitor : public JoinVisitor {
 public:
  DemuxVisitor(std::vector<std::unique_ptr<PlanCounter>> counters,
               std::vector<int> limits)
      : counters_(std::move(counters)),
        limits_(std::move(limits)),
        joins_per_level_(limits_.size(), 0) {}

  void InitializeEntry(TableSet s) override {
    for (auto& c : counters_) c->InitializeEntry(s);
  }
  double EntryCardinality(TableSet s) override {
    return counters_.back()->EntryCardinality(s);
  }
  void OnJoin(TableSet outer, TableSet inner,
              const std::vector<int>& pred_indices, bool cartesian) override {
    for (size_t i = 0; i < counters_.size(); ++i) {
      if (inner.size() <= limits_[i]) {
        counters_[i]->OnJoin(outer, inner, pred_indices, cartesian);
        ++joins_per_level_[i];
      }
    }
  }

  const PlanCounter& counter(size_t i) const { return *counters_[i]; }
  int64_t joins(size_t i) const { return joins_per_level_[i]; }

 private:
  std::vector<std::unique_ptr<PlanCounter>> counters_;
  std::vector<int> limits_;
  std::vector<int64_t> joins_per_level_;
};

}  // namespace

MultiLevelEstimator::MultiLevelEstimator(
    const TimeModel& time_model, OptimizerOptions base_options,
    std::vector<int> inner_limits)
    : time_model_(time_model),
      inner_limits_(std::move(inner_limits)),
      session_(std::move(base_options)) {
  // Always on: Estimate() enumerates at inner_limits_.back(), which must
  // exist and be the widest level.
  COTE_CHECK(!inner_limits_.empty());
  COTE_CHECK(std::is_sorted(inner_limits_.begin(), inner_limits_.end()));
}

MultiLevelEstimator::Result MultiLevelEstimator::Estimate(
    const QueryGraph& graph) const {
  StopWatch watch;
  Result result;

  // The session context supplies the per-query models and the normalized
  // plan-generation options the counters count for; the N per-level
  // counters themselves are this estimator's own (they share one
  // enumeration pass, which no single session counter can express).
  CompilationContext& ctx = session_.context();
  ctx.Reset(graph);
  const CardinalityModel& simple_card = ctx.simple_cardinality();
  const InterestingOrders& interesting = ctx.interesting_orders();

  std::vector<std::unique_ptr<PlanCounter>> counters;
  for (size_t i = 0; i < inner_limits_.size(); ++i) {
    counters.push_back(std::make_unique<PlanCounter>(
        graph, interesting, simple_card, ctx.options().plangen));
  }
  DemuxVisitor demux(std::move(counters), inner_limits_);

  // Enumerate once, at the highest (most permissive) level.
  EnumeratorOptions enum_opts = ctx.options().enumeration;
  enum_opts.max_composite_inner = inner_limits_.back();
  RunEnumeration(graph, enum_opts, &demux);

  for (size_t i = 0; i < inner_limits_.size(); ++i) {
    LevelEstimate level;
    level.inner_limit = inner_limits_[i];
    level.plan_estimates = demux.counter(i).estimated_plans();
    level.joins_ordered = demux.joins(i);
    level.estimated_seconds =
        time_model_.EstimateSeconds(level.plan_estimates);
    result.levels.push_back(level);
  }
  result.estimation_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace cote

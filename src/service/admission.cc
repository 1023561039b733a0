#include "service/admission.h"

namespace cote {

AdmissionStage::AdmissionStage(const OptimizerOptions& options,
                               const TimeModel& time_model,
                               const AdmissionOptions& admission,
                               CompileTimeCache* cache,
                               const TripRateTracker* tracker)
    : time_model_(time_model),
      admission_(admission),
      cache_(cache),
      tracker_(tracker),
      session_(options) {}

AdmissionOutcome AdmissionStage::Admit(const QueryGraph& graph,
                                       int query_class) {
  AdmissionOutcome out;
  out.query_class =
      query_class >= 0 ? query_class : ServiceQueryClass(graph);
  out.headroom_multiplier =
      tracker_ != nullptr ? tracker_->HeadroomMultiplier(out.query_class) : 1.0;

  if (cache_ != nullptr) {
    if (std::optional<double> cached = cache_->Lookup(graph)) {
      // The cached *measured* seconds stand in for the estimate. Only a
      // deadline can be derived from seconds alone — the count caps stay
      // unlimited (LimitsPolicy::DeriveFromSeconds).
      out.cache_hit = true;
      out.predicted_seconds = *cached;
      out.patience_seconds =
          admission_.limits_policy.DerivePatience(out.predicted_seconds);
      if (admission_.derive_limits) {
        out.limits = admission_.limits_policy.DeriveFromSeconds(
            *cached, out.headroom_multiplier);
      }
      return out;
    }
  }

  out.estimate = session_.Estimate(graph, time_model_);
  out.estimated = true;
  out.predicted_seconds = out.estimate.estimated_seconds;
  out.patience_seconds =
      admission_.limits_policy.DerivePatience(out.predicted_seconds);
  if (admission_.derive_limits) {
    out.limits = admission_.limits_policy.Derive(out.estimate,
                                                 out.headroom_multiplier);
  }
  return out;
}

}  // namespace cote

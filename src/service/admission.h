#ifndef COTE_SERVICE_ADMISSION_H_
#define COTE_SERVICE_ADMISSION_H_

#include "core/statement_cache.h"
#include "core/time_model.h"
#include "session/limits_policy.h"
#include "session/session.h"
#include "service/trip_tracker.h"

namespace cote {

struct AdmissionOptions {
  /// Derive per-query ResourceLimits from the prediction; off = every
  /// query runs ungoverned (unlimited).
  bool derive_limits = true;
  LimitsPolicy limits_policy;
};

/// What admission decided for one submission.
struct AdmissionOutcome {
  /// Predicted compile seconds: the COTE estimate, or the cached measured
  /// seconds on a signature hit. The scheduling key.
  double predicted_seconds = 0;
  /// True when the estimate path ran (estimate below is meaningful).
  bool estimated = false;
  /// True when the statement cache answered by signature.
  bool cache_hit = false;
  CompileTimeEstimate estimate;
  /// Limits the compile should run under (unlimited when derive_limits is
  /// off).
  ResourceLimits limits;
  /// Estimate-derived queue-wait patience in seconds
  /// (LimitsPolicy::DerivePatience); <= 0 means the query waits forever.
  /// Each whole patience interval spent queued demotes the compile one
  /// degradation tier at dispatch.
  double patience_seconds = 0;
  /// Trip-tracker multiplier folded into the limits (1.0 = no widening).
  double headroom_multiplier = 1.0;
  int query_class = 0;
};

/// \brief The estimate-first admission stage.
///
/// Every submission passes through here before it is scheduled: consult
/// the statement cache by structural signature — a hit reuses the cached
/// measured seconds as the prediction and skips estimation entirely, since
/// it already answers the only question the estimate would — otherwise
/// run the warm zero-allocation estimate path, then
/// derive the query's ResourceLimits from its own prediction via the
/// shared LimitsPolicy — widened by the trip-rate tracker's multiplier
/// for classes whose derived budgets keep tripping.
///
/// Owns one warm estimate-mode CompilationSession, so a long-lived
/// service estimates every arrival without per-query model setup — the
/// paper's premise (§4: estimation ≈ 3% of compilation) made into the
/// front door. Not thread-safe: one admission stage per service, driven
/// from the dispatch loop.
class AdmissionStage {
 public:
  /// `cache` and `tracker` may be null (no cache consultation / no
  /// feedback); both must outlive the stage when given.
  AdmissionStage(const OptimizerOptions& options,
                 const TimeModel& time_model, const AdmissionOptions& admission,
                 CompileTimeCache* cache, const TripRateTracker* tracker);

  /// Admits one submission. `query_class` < 0 derives the class from the
  /// query shape.
  AdmissionOutcome Admit(const QueryGraph& graph, int query_class);

  /// The estimator session's cumulative stats — estimates_run counts how
  /// often the estimate path actually ran (the cache-skip tests' probe).
  const CompilationStats& stats() const { return session_.stats(); }

 private:
  TimeModel time_model_;
  AdmissionOptions admission_;
  CompileTimeCache* cache_;          // not owned, nullable
  const TripRateTracker* tracker_;   // not owned, nullable
  CompilationSession session_;       // warm estimate-mode session
};

}  // namespace cote

#endif  // COTE_SERVICE_ADMISSION_H_

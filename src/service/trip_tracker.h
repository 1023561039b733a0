#ifndef COTE_SERVICE_TRIP_TRACKER_H_
#define COTE_SERVICE_TRIP_TRACKER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace cote {

class QueryGraph;

/// Maps a query to its feedback class: queries of similar enumeration
/// shape share estimator bias, and join count (table count) is the
/// dominant axis of COTE error (§5's per-size error tables). Classes
/// above TripRateTracker::kMaxClass share the last bucket.
int ServiceQueryClass(const QueryGraph& graph);

/// A failed compile whose Status is the budget's own (kFail trip) is trip
/// evidence just like a degraded result.
bool IsBudgetTripStatus(const Status& status);

/// The one trip predicate the tracker is fed with: an armed compile
/// counts as tripped when its result degraded (kGreedyFallback), when its
/// failure Status is the budget's own (kFail), or when the stage observer
/// saw the budget flag raise (`observer_tripped`) — the last catches trips
/// detected after enumeration already finished, where the result is
/// neither degraded nor failed. ServiceCore::Commit calls it for both
/// service front-ends (pinned by ServiceTripPredicateTest).
bool IsBudgetTrip(bool degraded, const Status& status, bool observer_tripped);

struct TripTrackerOptions {
  /// A class whose windowed trip rate exceeds this gets wider budgets.
  double trip_rate_threshold = 0.5;
  /// Observations per decision window: react after this many armed
  /// compiles of a class, not after a single unlucky trip.
  int min_samples = 4;
  /// Multiplier growth per widening decision.
  double widen_factor = 2.0;
  /// Ceiling on the accumulated headroom multiplier: beyond this the
  /// estimator is so biased the budget is effectively advisory, and
  /// unbounded widening would disable governance entirely.
  double max_multiplier = 64.0;
};

/// \brief Per-query-class budget trip-rate feedback.
///
/// The service derives each query's ResourceLimits from its own COTE
/// estimate; a class of queries that keeps tripping those derived budgets
/// is evidence the estimator is biased *low* for that class (the paper's
/// §5 error analysis says bias clusters by query shape). The tracker
/// counts armed-compile outcomes per class in fixed windows and widens
/// the class's headroom multiplier when the windowed trip rate crosses
/// the threshold — the "Online Sketch-based Query Optimization" pattern
/// of feeding observed outcomes back into policy without stopping the
/// service.
///
/// Deterministic and allocation-free after construction: fixed arrays,
/// integer counters, multiplicative widening. Single-writer by design —
/// the service's (single-threaded) dispatch loop records outcomes; the
/// admission stage only reads multipliers.
class TripRateTracker {
 public:
  /// Classes 0..kMaxClass; ServiceQueryClass clamps into this range.
  static constexpr int kMaxClass = 32;

  explicit TripRateTracker(TripTrackerOptions options = {});

  /// Records the outcome of one *armed* compile of `query_class`:
  /// `tripped` is whether the derived budget tripped (degraded result or
  /// budget-trip failure). Unarmed compiles are not evidence — don't
  /// record them.
  void Record(int query_class, bool tripped);

  /// Current headroom multiplier for the class (≥ 1.0), composed into
  /// LimitsPolicy::Derive's extra_headroom by the admission stage.
  double HeadroomMultiplier(int query_class) const;

  struct ClassSnapshot {
    int query_class = 0;
    int64_t armed = 0;    ///< total armed compiles recorded
    int64_t tripped = 0;  ///< total trips among them
    double multiplier = 1.0;
  };

  /// Classes with at least one recorded observation, ascending class id.
  std::vector<ClassSnapshot> Snapshot() const;

 private:
  struct ClassStats {
    int64_t armed = 0;
    int64_t tripped = 0;
    int window_armed = 0;
    int window_tripped = 0;
    double multiplier = 1.0;
  };

  static int ClampClass(int query_class);

  TripTrackerOptions options_;
  std::array<ClassStats, kMaxClass + 1> classes_;
};

}  // namespace cote

#endif  // COTE_SERVICE_TRIP_TRACKER_H_

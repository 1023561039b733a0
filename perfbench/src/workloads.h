#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/time_model.h"
#include "refs.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// The fixed service configuration of service-open-loop. The two arrival
/// rates are absolute, never derived from the code under test: 0.15 and
/// 0.3 of the capacity_qps measured when the benchmark was written (about
/// 1000/s with 3 workers on a 4-vCPU machine). At 0.5 and 0.8 the median
/// latency moved 2x from run to run, as the host's slow spells moved
/// compile speed and with it the queue.
struct ServiceConfig {
  static constexpr double kLightRate = 150;   ///< arrivals per second
  static constexpr double kBusyRate = 300;    ///< arrivals per second
  static constexpr double kLatencyLimit = 0.02;  ///< on_time_share limit, s
  static constexpr double kHotShare = 0.3;    ///< arrivals from the hot set
  /// The hot set: the first kHotSet corpus templates of kHotMinTables to
  /// kMaxTables tables, repeated verbatim. The other arrivals are whole
  /// passes over the stream in the seed's order.
  static constexpr int kHotSet = 16;
  static constexpr int kHotMinTables = 4;
  static constexpr int kCacheCapacity = 64;   ///< LRU statement cache slots
  /// Statements predicted below this many seconds are not cached.
  static constexpr double kCacheThreshold = 0.5e-3;
  static constexpr double kWindowSeconds = 2.0;  ///< submit, then Drain
  /// The service is sent the corpus statements of at most this many
  /// tables (compiles under ~20 ms), so one Drain does not hold the
  /// client thread for long; the larger ones stay in sql-stream.
  static constexpr int kMaxTables = 6;
  /// Share of --seconds each open-loop rate runs for, rounded to whole
  /// passes over the stream; the capacity bursts take most of the rest.
  static constexpr double kPhaseShare = 0.45;
};

/// Latency limit of on_time_share on the closed-loop workloads, seconds.
constexpr double kSqlStreamLimit = 0.25;
constexpr double kBigJoinLimit = 1.0;

/// First template index past the corpus: warm-up statements start here.
constexpr int kWarmTemplates = 5000;

struct Models {
  cote::TimeModel serial;    ///< bench::SerialOptions environment
  cote::TimeModel parallel;  ///< 4-node shared-nothing environment
};

struct RunOptions {
  uint64_t seed = 1;
  int nproc = 1;
  /// The CPUs the process may run on, as it started.
  std::vector<int> cpus;
  Models models;
  /// References of this seed's inputs; null when none are recorded.
  const RefTable* refs = nullptr;
};

/// What one pass of a workload produced.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  MetricSet metrics;                  ///< end-to-end or per-layer
  std::string notes;                  ///< extra text for the log
  /// Mean time per op of what tracing can slow down (closed loops: SQL
  /// or graph to plan; service: client time per arrival), seconds.
  double op_mean_seconds = 0;

  void Fail(const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed op: catalogs, generated inputs,
  /// sessions or service, and warm-up.
  virtual void Setup() = 0;
  /// Runs for about `seconds`. Without a tracer it fills the end-to-end
  /// metrics; with one it records spans and fills the per-layer metrics.
  virtual void Run(double seconds, Tracer* tracer, Outcome* out) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunOptions& options);

/// Recomputes the references of the inputs of `family` ("sql" or
/// "big-join") and writes them to `path`. The inputs are the same for
/// every seed, so one file serves every seed.
bool RecordRefs(const std::string& family, const RunOptions& options,
                const std::string& path);

/// Name of the reference family a workload reads.
std::string RefFamily(const std::string& workload);

/// The reference file of `family` under `data`.
std::string RefPath(const std::string& data, const std::string& family);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

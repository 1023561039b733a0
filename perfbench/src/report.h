#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/compile_service.h"

namespace perfbench {

/// Nearest-rank percentile (`pct` in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double pct);

/// The tail the benchmark reports: the highest percentile of the ladder
/// 99.9 / 99 / 95 / 90 / 75 / 50 that has at least ten samples beyond it
/// (50 when even the median has fewer).
struct Tail {
  double pct = 50;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;  ///< samples strictly above the percentile's rank
};
double TailPercentile(size_t samples);
Tail TailOf(const std::vector<double>& values);

/// The timings of one run, keyed by input (a statement template or a
/// join graph). An input repeats within a run, so one quantile of each
/// input's repeats (`pct`, fixed per workload) is one sample of the run's
/// percentiles: a spell of the host in one repeat does not move them, and
/// every run weighs each input alike however many passes it made.
class Timings {
 public:
  explicit Timings(double pct = 50) : pct_(pct) {}
  void Add(int input, double value) {
    by_input_[input].push_back(value);
    ++count_;
  }
  /// One sample per input: the `pct` percentile of its repeats.
  std::vector<double> PerInput() const;
  /// The `pct` percentile of `input`'s repeats; 0 for an unseen input.
  double Of(int input) const;
  double pct() const { return pct_; }
  size_t count() const { return count_; }

 private:
  double pct_;
  std::map<int, std::vector<double>> by_input_;
  size_t count_ = 0;
};

/// Open-loop bookkeeping for one AsyncCompileService burst. The service
/// stamps each record relative to a burst epoch taken inside Submit, after
/// admission. Every Submit returns after its own stamp, so
/// `submit_return[t] - arrival_offset[t]` bounds the epoch from above for
/// each ticket t, and the tightest bound recovers it to within the lock
/// hand-off of one Submit. All times share one steady clock, in seconds.
double BurstEpoch(const std::vector<double>& submit_return,
                  const std::vector<double>& arrival_offset);

/// Latency of one arrival: from when it was due (its scheduled arrival,
/// not its Submit) to the record's finish.
inline double DueLatency(double due, double epoch,
                         const cote::ServiceQueryRecord& record) {
  return epoch + record.finish_seconds - due;
}

/// An arrival is on time only when it was served at full tier, with an OK
/// status, within `limit` seconds of being due. Shed, failed and degraded
/// arrivals are misses whatever their latency.
bool OnTime(const cote::ServiceQueryRecord& record, double latency,
            double limit);

/// Named metrics with units, printed as text and as the result JSON.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Adds the median and the tail of the per-input samples of `t`.
  void AddTimings(const std::string& p50_name, const std::string& tail_name,
                  const Timings& t, const std::string& unit);
  /// Adds a metric that is printed but left out of the result object.
  void AddText(const std::string& name, double value, const std::string& unit,
               const std::string& note = "");

  /// One "name = value unit  (note)" line per metric.
  std::string Text() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson(bool correct, int64_t attempted,
                         int64_t failed) const;

  double Get(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_result;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

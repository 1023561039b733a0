// Figure 4 — Overhead of Compilation Time Estimation Compared with Actual
// Optimization:
//   (a) linear workload, serial version
//   (b) real2 workload, serial version
//   (c) real1 workload, parallel version (the paper prints this as a
//       table: actual time / time to estimate / percentage)
//
// The paper's result: estimation costs 1-3% of actual compilation in the
// serial version, even less in the parallel version.
//
// Usage: fig4_overhead [--histogram-buckets N]. N sets
// CostParams::histogram_buckets, the cost model's simulated per-plan work
// (default 128; 0 switches it off), for every optimize the figure times.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"

using namespace cote;         // NOLINT — bench driver
using namespace cote::bench;  // NOLINT

namespace {

void RunOne(const std::string& title, const Workload& w,
            const OptimizerOptions& options) {
  Section(title);
  Optimizer opt(options);
  TimeModel unused;  // overhead does not depend on the time model
  CompileTimeEstimator cote(unused, options);

  std::printf("\n%-12s %14s %16s %8s\n", "query", "compile (s)",
              "estimate (s)", "pctg");
  double sum_actual = 0, sum_est = 0;
  for (int i = 0; i < w.size(); ++i) {
    double actual = MedianCompileSeconds(opt, w.queries[i]);
    // Median-of-3 estimation time as well.
    double est_time = 1e18;
    for (int r = 0; r < 3; ++r) {
      est_time = std::min(est_time,
                          cote.Estimate(w.queries[i]).estimation_seconds);
    }
    sum_actual += actual;
    sum_est += est_time;
    std::printf("%-12s %14.4f %16.5f %7.1f%%\n", w.labels[i].c_str(), actual,
                est_time, 100.0 * est_time / actual);
  }
  std::printf("%-12s %14.4f %16.5f %7.1f%%   (paper: 1-3%% serial, less "
              "parallel)\n",
              "TOTAL", sum_actual, sum_est, 100.0 * sum_est / sum_actual);
}

}  // namespace

int main(int argc, char** argv) {
  int buckets = CostParams().histogram_buckets;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--histogram-buckets") == 0 && i + 1 < argc) {
      buckets = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--histogram-buckets N]\n", argv[0]);
      return 2;
    }
  }
  auto with_buckets = [buckets](OptimizerOptions options) {
    options.cost.histogram_buckets = buckets;
    return options;
  };
  RunOne("Figure 4(a): estimation overhead — linear_s (serial)",
         LinearWorkload(), with_buckets(SerialOptions()));
  RunOne("Figure 4(b): estimation overhead — real2_s (serial)",
         Real2Workload(), with_buckets(SerialOptions()));
  RunOne("Figure 4(c): estimation overhead — real1_p (parallel, 4 nodes)",
         Real1Workload(), with_buckets(ParallelOptions()));
  return 0;
}

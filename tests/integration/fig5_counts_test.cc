// Exact Figure 5 counts: for each query, the NLJN / MGJN / HSJN join plans
// the generator creates (plan mode) and the counter estimates (estimate
// mode), plus the chosen plan's cost, at composite-inner limit 2. The two
// visitors share their join rules, so any change to one rule moves both
// columns — and a refactor of either visitor must reproduce every value
// here bit for bit. The values were recorded once and are never edited;
// best costs are hex-float literals so the comparison is exact.
//
// Coverage: star_s (serial) and random_p (parallel) queries of at most 8
// tables, plus every real1_p query with lazy and with eager partitions and
// every tpch_p query (parallel, 4 nodes).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "optimizer/optimizer.h"
#include "workload/workload.h"

namespace cote {
namespace {

struct Fig5Row {
  const char* label;
  int tables;
  int64_t generated[kNumJoinMethods];  // NLJN, MGJN, HSJN
  int64_t estimated[kNumJoinMethods];
  double best_cost;
};

OptimizerOptions SerialLimit2() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 2;
  return o;
}

OptimizerOptions ParallelLimit2() {
  OptimizerOptions o = OptimizerOptions::Parallel(4);
  o.enumeration.max_composite_inner = 2;
  return o;
}

/// Optimizes and estimates every query of `w` with at most `max_tables`
/// tables and compares each against the next row, in workload order.
void ExpectRows(const Workload& w, const OptimizerOptions& options,
                int max_tables, const std::vector<Fig5Row>& rows) {
  Optimizer opt(options);
  CompileTimeEstimator cote(TimeModel{}, options);
  size_t next = 0;
  for (int i = 0; i < w.size(); ++i) {
    const QueryGraph& q = w.queries[i];
    if (q.num_tables() > max_tables) continue;
    ASSERT_LT(next, rows.size()) << "unexpected query " << w.labels[i];
    const Fig5Row& row = rows[next++];
    SCOPED_TRACE(w.labels[i]);
    EXPECT_EQ(w.labels[i], row.label);
    EXPECT_EQ(q.num_tables(), row.tables);
    StatusOr<OptimizeResult> r = opt.Optimize(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    CompileTimeEstimate est = cote.Estimate(q);
    for (int m = 0; m < kNumJoinMethods; ++m) {
      const char* method = JoinMethodName(static_cast<JoinMethod>(m));
      EXPECT_EQ(r->stats.join_plans_generated.counts[m], row.generated[m])
          << method << " generated";
      EXPECT_EQ(est.plan_estimates.counts[m], row.estimated[m])
          << method << " estimated";
    }
    EXPECT_EQ(r->stats.best_cost, row.best_cost);
  }
  EXPECT_EQ(next, rows.size());
}

TEST(Fig5CountsTest, StarSerial) {
  ExpectRows(StarWorkload(), SerialLimit2(), 8,
             {
                 {"6t/1p", 6, {276, 105, 105}, {450, 105, 105},
                  0x1.5b82c4ebf0e63p+14},
                 {"6t/2p", 6, {886, 420, 105}, {1060, 315, 105},
                  0x1.4b8aea657d035p+14},
                 {"6t/3p", 6, {936, 525, 105}, {1110, 420, 105},
                  0x1.4b8ae0d3ef78p+14},
                 {"6t/4p", 6, {1036, 630, 105}, {1210, 525, 105},
                  0x1.4b8ae0c6d4068p+14},
                 {"6t/5p", 6, {1456, 735, 105}, {1630, 630, 105},
                  0x1.4b8ae0fde0e3p+14},
                 {"8t/1p", 8, {1366, 497, 497}, {2296, 497, 497},
                  0x1.5b5d5dc5508f4p+14},
                 {"8t/2p", 8, {4558, 1988, 497}, {5488, 1491, 497},
                  0x1.4b8b0688edf17p+14},
                 {"8t/3p", 8, {4726, 2485, 497}, {5656, 1988, 497},
                  0x1.4b8afcf76066p+14},
                 {"8t/4p", 8, {5174, 2982, 497}, {6104, 2485, 497},
                  0x1.4b8afcea44f48p+14},
                 {"8t/5p", 8, {7414, 3479, 497}, {8344, 2982, 497},
                  0x1.4b8afd2151d1p+14},
             });
}

TEST(Fig5CountsTest, RandomParallel) {
  ExpectRows(RandomWorkload(), ParallelLimit2(), 8,
             {
                 {"rnd01/4t", 4, {166, 27, 47}, {183, 27, 47},
                  0x1.0b726602ab881p+27},
                 {"rnd02/5t", 5, {607, 83, 166}, {717, 83, 166},
                  0x1.08990cdda447ep+17},
                 {"rnd03/8t", 8, {5732, 835, 1662}, {5802, 835, 1662},
                  0x1.84d1bccaae431p+26},
                 {"rnd04/8t", 8, {12996, 1951, 2262}, {13128, 1679, 2262},
                  0x1.25738191023bap+19},
                 {"rnd05/8t", 8, {7699, 1214, 1803}, {8270, 1258, 1816},
                  0x1.5531f5061b5c2p+33},
                 {"rnd08/4t", 4, {178, 25, 39}, {230, 28, 39},
                  0x1.3c29dddcb83e3p+17},
                 {"rnd09/4t", 4, {266, 46, 86}, {278, 46, 86},
                  0x1.6312352ba88c2p+42},
                 {"rnd10/6t", 6, {3156, 731, 787}, {3396, 943, 807},
                  0x1.8b06387a4ef47p+15},
                 {"rnd11/7t", 7, {9220, 2388, 2052}, {9958, 3135, 2142},
                  0x1.14e169b6dfbf6p+16},
             });
}

TEST(Fig5CountsTest, Real1Parallel) {
  ExpectRows(Real1Workload(), ParallelLimit2(), 64,
             {
                 {"R1.1", 4, {110, 18, 29}, {132, 18, 29},
                  0x1.670f4d0516fd5p+16},
                 {"R1.2", 5, {335, 48, 69}, {432, 57, 69},
                  0x1.6a8cccc86079ap+13},
                 {"R1.3", 5, {574, 98, 118}, {713, 94, 114},
                  0x1.9347c537f9635p+16},
                 {"R1.4", 5, {207, 42, 57}, {280, 48, 57},
                  0x1.1a492402e249ap+13},
                 {"R1.5", 7, {1564, 138, 258}, {1627, 138, 258},
                  0x1.6b13d1a62b8acp+14},
                 {"R1.6", 5, {594, 127, 99}, {641, 120, 99},
                  0x1.1d5e4ad501be3p+14},
                 {"R1.7", 6, {1116, 186, 241}, {1265, 177, 241},
                  0x1.4f12353e9dbc7p+16},
                 {"R1.8", 6, {1424, 294, 255}, {1686, 318, 255},
                  0x1.7bebe76bb2239p+17},
             });
}

TEST(Fig5CountsTest, Real1ParallelEagerPartitions) {
  OptimizerOptions eager = ParallelLimit2();
  eager.plangen.eager_partitions = true;
  ExpectRows(Real1Workload(), eager, 64,
             {
                 {"R1.1", 4, {110, 18, 29}, {132, 18, 36},
                  0x1.670f4d0516fd5p+16},
                 {"R1.2", 5, {346, 48, 69}, {435, 57, 78},
                  0x1.6a8cccc86079ap+13},
                 {"R1.3", 5, {614, 104, 124}, {792, 128, 136},
                  0x1.9347c537f9635p+16},
                 {"R1.4", 5, {215, 42, 57}, {282, 48, 64},
                  0x1.1a492402e249ap+13},
                 {"R1.5", 7, {1564, 138, 258}, {1627, 138, 276},
                  0x1.6b13d1a62b8acp+14},
                 {"R1.6", 5, {662, 139, 111}, {759, 200, 122},
                  0x1.1d5e4ad501be3p+14},
                 {"R1.7", 6, {1146, 190, 245}, {1356, 224, 283},
                  0x1.4f12353e9dbc7p+16},
                 {"R1.8", 6, {1493, 306, 267}, {1765, 363, 283},
                  0x1.7bebe76bb2239p+17},
             });
}

TEST(Fig5CountsTest, TpchParallel) {
  ExpectRows(TpchWorkload(), ParallelLimit2(), 64,
             {
                 {"Q2", 5, {567, 103, 129}, {783, 101, 129},
                  0x1.276cb70221549p+10},
                 {"Q5", 6, {2252, 491, 511}, {2718, 498, 511},
                  0x1.5d97e7eca81acp+14},
                 {"Q7", 6, {417, 58, 96}, {476, 62, 96},
                  0x1.3fc7ae11d6b5ap+17},
                 {"Q8", 8, {4059, 633, 837}, {5252, 643, 833},
                  0x1.26d728ef0fe5ep+14},
                 {"Q9", 6, {1623, 341, 269}, {1791, 404, 269},
                  0x1.2cd963af5bf6ap+16},
                 {"Q10", 4, {156, 26, 34}, {182, 34, 34},
                  0x1.125e44ce92b5dp+18},
                 {"Q21", 6, {1965, 366, 535}, {2251, 340, 542},
                  0x1.4544d4e337c3fp+15},
             });
}

}  // namespace
}  // namespace cote

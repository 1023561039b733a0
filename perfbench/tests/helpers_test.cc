// Tests of the benchmark's own helpers: tail choice, per-input timings,
// due-time latency, on-time accounting, span self time, and the
// reference check.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "refs.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TailTest, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(10000), 99.9);  // 10 beyond p99.9
  EXPECT_EQ(TailPercentile(9999), 99);     // p99.9 would leave 9
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(999), 95);
  EXPECT_EQ(TailPercentile(200), 95);
  EXPECT_EQ(TailPercentile(199), 90);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(40), 75);
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(5), 50);  // nothing qualifies: the median
}

TEST(TailTest, ValueAndCountsMatchTheChosenPercentile) {
  const Tail t = TailOf(Ramp(1000));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
  // Order of the input does not matter.
  std::vector<double> reversed = Ramp(1000);
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(TailOf(reversed).value, 990);
}

TEST(TimingsTest, EachInputIsOneSampleAtItsQuantile) {
  Timings t;
  // Input 0 repeats three times with one spike; input 1 twice.
  t.Add(0, 1.0);
  t.Add(0, 50.0);
  t.Add(0, 1.2);
  t.Add(1, 3.0);
  t.Add(1, 3.0);
  EXPECT_EQ(t.count(), 5u);
  const std::vector<double> medians = t.PerInput();
  ASSERT_EQ(medians.size(), 2u);
  EXPECT_EQ(medians[0], 1.2);  // the spike does not move the median
  EXPECT_EQ(medians[1], 3.0);
  EXPECT_EQ(t.Of(0), 1.2);
  EXPECT_EQ(t.Of(7), 0);  // never seen

  // The upper quartile of four repeats is the third fastest; the lower
  // quartile the fastest.
  Timings upper(75), lower(25);
  for (double v : {4.0, 1.0, 3.0, 2.0}) {
    upper.Add(0, v);
    lower.Add(0, v);
  }
  EXPECT_EQ(upper.PerInput()[0], 3.0);
  EXPECT_EQ(lower.PerInput()[0], 1.0);
}

TEST(TimingsTest, TailCountsInputsNotRepeats) {
  // 40 inputs seen 5 times each: the tail is chosen over 40 samples,
  // however many passes the run made.
  Timings t;
  for (int pass = 0; pass < 5; ++pass) {
    for (int input = 0; input < 40; ++input) t.Add(input, input + 1);
  }
  MetricSet m;
  m.AddTimings("p50", "tail", t, "ms");
  EXPECT_EQ(m.Get("p50"), 20);
  EXPECT_EQ(m.Get("tail"), 30);  // p75: 10 inputs beyond it
}

TEST(MetricSetTest, TextOnlyMetricsStayOutOfTheResult) {
  MetricSet m;
  m.Add("kept", 1.5, "ms");
  m.AddText("printed", 2.5, "ms");
  const std::string json = m.ResultJson(true, 3, 0);
  EXPECT_NE(json.find("\"kept\""), std::string::npos);
  EXPECT_EQ(json.find("\"printed\""), std::string::npos);
  EXPECT_NE(m.Text().find("printed"), std::string::npos);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0", 0),
            0u);
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile(Ramp(4), 50), 2);
  EXPECT_EQ(Percentile(Ramp(4), 51), 3);
  EXPECT_EQ(Percentile(Ramp(4), 100), 4);
}

TEST(DueLatencyTest, StartsAtTheScheduledArrivalNotAtSubmit) {
  // The service stamped ticket 0 at epoch 100.000 and ticket 1 0.010 s
  // later; each Submit returned 1 ms after its stamp.
  const double epoch = BurstEpoch({100.001, 100.011}, {0.0, 0.010});
  EXPECT_NEAR(epoch, 100.001, 1e-12);
  cote::ServiceQueryRecord r;
  r.arrival_seconds = 0.010;
  r.start_seconds = 0.050;
  r.finish_seconds = 0.080;
  r.queue_seconds = r.start_seconds - r.arrival_seconds;
  // Due at 100.000, but the client ran 11 ms late: the latency counts
  // that lateness, which queue_seconds (0.040) hides.
  EXPECT_NEAR(DueLatency(100.000, epoch, r), 0.081, 1e-9);
}

TEST(DueLatencyTest, EpochUsesTheTightestBound) {
  // A slow Submit (ticket 1 returned late) must not move the epoch.
  EXPECT_NEAR(BurstEpoch({5.0002, 5.9}, {0.0, 0.5}), 5.0002, 1e-12);
}

TEST(OnTimeTest, ShedFailedAndDegradedArrivalsAreMisses) {
  cote::ServiceQueryRecord served;
  served.outcome = cote::ServiceOutcome::kServedFull;
  EXPECT_TRUE(OnTime(served, 0.05, 0.25));
  EXPECT_FALSE(OnTime(served, 0.30, 0.25));  // late

  cote::ServiceQueryRecord degraded = served;
  degraded.degraded = true;
  degraded.outcome = cote::ServiceOutcome::kServedDegraded;
  EXPECT_FALSE(OnTime(degraded, 0.01, 0.25));

  cote::ServiceQueryRecord shed = served;
  shed.status = cote::Status::Unavailable("queue full");
  shed.outcome = cote::ServiceOutcome::kShedQueueFull;
  EXPECT_FALSE(OnTime(shed, 0.0, 0.25));

  cote::ServiceQueryRecord expired = served;
  expired.status = cote::Status::DeadlineExceeded("patience");
  expired.outcome = cote::ServiceOutcome::kShedExpired;
  EXPECT_FALSE(OnTime(expired, 0.0, 0.25));

  cote::ServiceQueryRecord failed = served;
  failed.status = cote::Status::Internal("boom");
  failed.outcome = cote::ServiceOutcome::kFailedPermanent;
  EXPECT_FALSE(OnTime(failed, 0.0, 0.25));
}

TEST(SelfTimeTest, SpanMinusItsDirectChildren) {
  Tracer tr;
  const int op = tr.Add("op", -1, 0, 0, 100);
  tr.Add("parser.parse", op, 0, 0, 10);
  const int est = tr.Add("session.estimate", op, 0, 10, 50);
  tr.Add("core.count", est, 0, 15, 45);
  tr.Add("bench.check", op, 0, 60, 70);
  tr.Add("probe.enum_core", -1, 0, 100, 105);
  const std::vector<int64_t> self = SelfTimes(tr.spans());
  EXPECT_EQ(self[0], 100 - 10 - 40 - 10);  // grandchildren do not count
  EXPECT_EQ(self[2], 40 - 30);
  EXPECT_EQ(self[3], 30);

  const std::map<std::string, int64_t> layers = SelfByLayer(tr.spans());
  EXPECT_EQ(layers.at("unattributed"), 40);
  EXPECT_EQ(layers.at("parser"), 10);
  EXPECT_EQ(layers.at("session"), 10);
  EXPECT_EQ(layers.at("core"), 30);
  EXPECT_EQ(layers.at("bench"), 10);
  EXPECT_EQ(layers.at("probe"), 5);
  // The layers of an op add back up to the op.
  EXPECT_EQ(layers.at("unattributed") + layers.at("parser") +
                layers.at("session") + layers.at("core") + layers.at("bench"),
            100);
}

TEST(RefTest, CheckFiresOnAPerturbedReference) {
  OpRef want;
  want.est_joins = 12;
  want.est_plans[1] = 40;
  want.gen_plans[2] = 33;
  want.best_cost = 1234.5;
  EXPECT_EQ(CompareRef(want, want), "");

  RefTable table;
  table.Put("s:1", want);
  table.Put("s:0", want);
  table.Put("p:0", want);
  table.Perturb("s:");  // the first "s:" key only
  EXPECT_EQ(CompareRef(*table.Find("s:1"), want), "");
  EXPECT_EQ(CompareRef(*table.Find("p:0"), want), "");
  const std::string d = CompareRef(*table.Find("s:0"), want);
  EXPECT_NE(d, "");
  EXPECT_NE(d.find("est_plans.nljn"), std::string::npos);

  OpRef cost = want;
  cost.best_cost *= 1 + 1e-6;
  EXPECT_NE(CompareRef(want, cost), "");
  cost.best_cost = want.best_cost * (1 + 1e-12);  // rounding noise passes
  EXPECT_EQ(CompareRef(want, cost), "");
}

}  // namespace
}  // namespace perfbench

#include "core/plan_counter.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/estimator.h"
#include "optimizer/optimizer.h"
#include "query/query_builder.h"

namespace cote {
namespace {

std::shared_ptr<Catalog> MakeCatalog() {
  auto catalog = std::make_shared<Catalog>();
  for (int i = 0; i < 6; ++i) {
    TableBuilder b("T" + std::to_string(i), 20000 * (i + 1));
    b.Col("a", ColumnType::kInt, 2000).Col("b", ColumnType::kInt, 200);
    b.Col("c", ColumnType::kInt, 20);
    b.Idx("idx" + std::to_string(i), {"a"});
    b.HashPartition({"a"});
    EXPECT_TRUE(catalog->AddTable(b.Build()).ok());
  }
  return catalog;
}

QueryGraph Chain(const Catalog& catalog, int n, int preds_per_edge = 1,
                 bool order_by = false) {
  QueryBuilder qb(catalog);
  const char* cols[] = {"a", "b", "c"};
  for (int i = 0; i < n; ++i) {
    qb.AddTable("T" + std::to_string(i), "t" + std::to_string(i));
  }
  for (int i = 0; i + 1 < n; ++i) {
    for (int p = 0; p < preds_per_edge; ++p) {
      qb.Join("t" + std::to_string(i), cols[p], "t" + std::to_string(i + 1),
              cols[p]);
    }
  }
  if (order_by) qb.OrderBy({{"t0", "c"}});
  auto g = qb.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

/// Runs the counter through the real enumerator.
JoinTypeCounts Count(const QueryGraph& g, PlanCounterOptions copt = {},
                     EnumeratorOptions eopt = {}, PlanGenOptions plangen = {}) {
  CardinalityModel card(g, false);
  InterestingOrders interesting(g);
  PlanCounter counter(g, interesting, card, plangen, copt);
  JoinEnumerator enumerator(g, eopt);
  enumerator.Run(&counter);
  return counter.estimated_plans();
}

JoinTypeCounts Actual(const QueryGraph& g, OptimizerOptions opt = {}) {
  Optimizer optimizer(opt);
  auto r = optimizer.Optimize(g);
  EXPECT_TRUE(r.ok());
  return r->stats.join_plans_generated;
}

TEST(PlanCounterTest, SerialHsjnEstimateIsExact) {
  // The paper's exactness claim (§5.2): in the serial version HSJN
  // estimates equal the actuals because HSJN propagates nothing.
  auto catalog = MakeCatalog();
  for (int n : {2, 3, 4, 5}) {
    for (bool ob : {false, true}) {
      QueryGraph g = Chain(*catalog, n, 1, ob);
      EXPECT_EQ(Count(g).hsjn(), Actual(g).hsjn()) << n << " ob=" << ob;
    }
  }
}

TEST(PlanCounterTest, EstimatesWithinPaperBounds) {
  // NLJN/MGJN estimates are approximate; the paper reports ≤30% error for
  // NLJN and ≤14% for MGJN on its 6-10 table synthetic workloads. Allow
  // headroom across shapes (tiny queries amplify the plan-sharing bias).
  auto catalog = MakeCatalog();
  for (int n : {4, 5, 6}) {
    for (int preds : {1, 2}) {
      QueryGraph g = Chain(*catalog, n, preds, /*order_by=*/true);
      JoinTypeCounts est = Count(g);
      JoinTypeCounts act = Actual(g);
      for (JoinMethod m : {JoinMethod::kNljn, JoinMethod::kMgjn}) {
        double e = static_cast<double>(est[m]);
        double a = static_cast<double>(act[m]);
        ASSERT_GT(a, 0);
        EXPECT_LT(std::abs(e - a) / a, 0.45)
            << JoinMethodName(m) << " n=" << n << " preds=" << preds
            << " est=" << e << " act=" << a;
      }
    }
  }
}

TEST(PlanCounterTest, OrderByIncreasesEstimates) {
  auto catalog = MakeCatalog();
  QueryGraph without = Chain(*catalog, 4, 1, false);
  QueryGraph with = Chain(*catalog, 4, 1, true);
  EXPECT_GT(Count(with).nljn(), Count(without).nljn());
  // HSJN ignores orders entirely.
  EXPECT_EQ(Count(with).hsjn(), Count(without).hsjn());
}

TEST(PlanCounterTest, MorePredicatesMoreMergePlans) {
  auto catalog = MakeCatalog();
  QueryGraph one = Chain(*catalog, 3, 1);
  QueryGraph three = Chain(*catalog, 3, 3);
  EXPECT_GT(Count(three).mgjn(), Count(one).mgjn());
}

TEST(PlanCounterTest, PropertyListsAccumulateBottomUp) {
  auto catalog = MakeCatalog();
  QueryGraph g = Chain(*catalog, 3, 1, /*order_by=*/true);
  CardinalityModel card(g, false);
  InterestingOrders interesting(g);
  PlanCounter counter(g, interesting, card, {});
  JoinEnumerator enumerator(g, {});
  enumerator.Run(&counter);

  // Base t0: join order (a) + ORDER BY order (c) + index order.
  const auto* t0 = counter.FindState(TableSet::Single(0));
  ASSERT_NE(t0, nullptr);
  EXPECT_GE(t0->orders.size(), 2u);

  // Top entry: join orders retired; the ORDER BY order survives.
  const auto* top = counter.FindState(TableSet::FirstN(3));
  ASSERT_NE(top, nullptr);
  bool has_orderby = false;
  for (const OrderProperty& o : top->orders) {
    has_orderby |= o.SatisfiesPrefix(OrderProperty({ColumnRef(0, 2)}));
    // No retired join-column orders may survive.
    EXPECT_FALSE(o == OrderProperty({ColumnRef(0, 0)}));
  }
  EXPECT_TRUE(has_orderby);
  EXPECT_GT(counter.TotalPlanSlots(), 0);
  EXPECT_EQ(counter.num_entries(), 6);  // 3 singletons + {01} {12} {012}
}

TEST(PlanCounterTest, FirstJoinOnlyPropagationCloseToFull) {
  // §4 item 4: propagating on the first join only barely changes counts.
  auto catalog = MakeCatalog();
  QueryGraph g = Chain(*catalog, 5, 2, true);
  PlanCounterOptions first_only;
  PlanCounterOptions every;
  every.first_join_propagation_only = false;
  JoinTypeCounts a = Count(g, first_only);
  JoinTypeCounts b = Count(g, every);
  for (int m = 0; m < kNumJoinMethods; ++m) {
    double da = static_cast<double>(a.counts[m]);
    double db = static_cast<double>(b.counts[m]);
    EXPECT_LT(std::abs(da - db) / std::max(db, 1.0), 0.15)
        << JoinMethodName(static_cast<JoinMethod>(m));
  }
}

TEST(PlanCounterTest, ParallelSeparateListsCountPartitions) {
  auto catalog = MakeCatalog();
  QueryGraph g = Chain(*catalog, 4, 1, true);
  PlanGenOptions par;
  par.parallel = true;
  JoinTypeCounts serial = Count(g);
  JoinTypeCounts parallel = Count(g, {}, {}, par);
  // Parallel planning multiplies in the partition dimension.
  EXPECT_GE(parallel.total(), serial.total());
  // And tracks the actual parallel optimizer within a factor.
  JoinTypeCounts act = Actual(g, OptimizerOptions::Parallel(4));
  EXPECT_GT(act.total(), 0);
  double ratio = static_cast<double>(parallel.total()) /
                 static_cast<double>(act.total());
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

TEST(PlanCounterTest, CompoundModeAtLeastSeparate) {
  // Separate lists drop (retired-order, live-partition) combinations and
  // thus underestimate relative to the compound representation (§3.4).
  auto catalog = MakeCatalog();
  QueryGraph g = Chain(*catalog, 4, 2, true);
  PlanGenOptions par;
  par.parallel = true;
  PlanCounterOptions sep;
  PlanCounterOptions comp = sep;
  comp.multi_property = MultiPropertyMode::kCompound;
  EXPECT_GE(Count(g, comp, {}, par).nljn(), Count(g, sep, {}, par).nljn());
}

TEST(PlanCounterTest, RespectsEnumeratorKnobs) {
  auto catalog = MakeCatalog();
  QueryGraph g = Chain(*catalog, 5);
  EnumeratorOptions bushy;
  EnumeratorOptions left_deep;
  left_deep.max_composite_inner = 1;
  EXPECT_LT(Count(g, {}, left_deep).total(), Count(g, {}, bushy).total());
}

TEST(PlanCounterTest, ReRunningEnumerationIsIdempotent) {
  // Regression: InitializeEntry's base-table partition / compound seeding
  // used un-guarded pushes, so driving the same counter through a second
  // enumeration run duplicated every seeded value and inflated the
  // second run's counts. All list pushes must dedupe (set semantics).
  auto catalog = MakeCatalog();
  QueryGraph g = Chain(*catalog, 5, /*preds_per_edge=*/2, /*order_by=*/true);
  for (MultiPropertyMode mode :
       {MultiPropertyMode::kSeparate, MultiPropertyMode::kCompound}) {
    PlanGenOptions plangen;
    plangen.parallel = true;
    plangen.eager_partitions = true;
    PlanCounterOptions copt;
    copt.multi_property = mode;
    CardinalityModel card(g, false);
    InterestingOrders interesting(g);
    PlanCounter counter(g, interesting, card, plangen, copt);
    JoinEnumerator enumerator(g, {});
    enumerator.Run(&counter);
    const int64_t slots1 = counter.TotalPlanSlots();
    const int64_t nljn1 = counter.estimated_plans().nljn();
    const int64_t mgjn1 = counter.estimated_plans().mgjn();
    enumerator.Run(&counter);
    // Property lists are quiescent: the MEMO-size proxy must not move,
    // and the second run must accumulate exactly the same plan counts.
    EXPECT_EQ(counter.TotalPlanSlots(), slots1);
    EXPECT_EQ(counter.estimated_plans().nljn(), 2 * nljn1);
    EXPECT_EQ(counter.estimated_plans().mgjn(), 2 * mgjn1);
  }
}

TEST(PlanCounterTest, CartesianJoinsCountNljnOnly) {
  auto catalog = MakeCatalog();
  QueryBuilder qb(*catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  // No predicate; force pure Cartesian enumeration.
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  EnumeratorOptions opt;
  opt.allow_all_cartesian = true;
  JoinTypeCounts c = Count(*g, {}, opt);
  EXPECT_GT(c.nljn(), 0);
  EXPECT_EQ(c.mgjn(), 0);
  EXPECT_EQ(c.hsjn(), 0);
}

}  // namespace
}  // namespace cote

#include "optimizer/properties/interesting_orders.h"

#include <gtest/gtest.h>

#include <vector>

#include "catalog/catalog.h"
#include "optimizer/properties/entry_equivalence.h"
#include "query/query_builder.h"

namespace cote {
namespace {

class InterestingOrdersTest : public ::testing::Test {
 protected:
  InterestingOrdersTest() {
    for (int i = 0; i < 4; ++i) {
      TableBuilder b("T" + std::to_string(i), 10000);
      b.Col("a", ColumnType::kInt, 1000).Col("b", ColumnType::kInt, 100);
      b.Col("c", ColumnType::kInt, 10).Col("d", ColumnType::kInt, 10);
      EXPECT_TRUE(catalog_.AddTable(b.Build()).ok());
    }
  }

  Catalog catalog_;
};

TEST_F(InterestingOrdersTest, JoinColumnInterests) {
  QueryBuilder qb(catalog_);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  InterestingOrders io(*g);
  // One single-column interest per predicate side.
  ASSERT_EQ(io.interests().size(), 2u);
  EXPECT_EQ(io.interests()[0].source, OrderSource::kJoin);
  EXPECT_EQ(io.interests()[0].order, OrderProperty({ColumnRef(0, 0)}));
  EXPECT_EQ(io.interests()[1].order, OrderProperty({ColumnRef(1, 0)}));
}

TEST_F(InterestingOrdersTest, MultiPredicatePairGetsConcatenatedOrder) {
  QueryBuilder qb(catalog_);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a").Join("t0", "b", "t1", "b");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  InterestingOrders io(*g);
  // 4 single-column + 2 concatenated (one per side).
  EXPECT_EQ(io.interests().size(), 6u);
  bool found_concat = false;
  for (const OrderInterest& i : io.interests()) {
    if (i.order.size() == 2) found_concat = true;
  }
  EXPECT_TRUE(found_concat);
}

TEST_F(InterestingOrdersTest, OrderByPrefixes) {
  QueryBuilder qb(catalog_);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a");
  qb.OrderBy({{"t0", "b"}, {"t1", "b"}});
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  InterestingOrders io(*g);
  // Each ORDER BY prefix is interesting; the 1-prefix only needs t0.
  int order_by_interests = 0;
  for (const OrderInterest& i : io.interests()) {
    if (i.source == OrderSource::kOrderBy) {
      ++order_by_interests;
      if (i.order.size() == 1) {
        EXPECT_EQ(i.tables, TableSet::Single(0));
        EXPECT_TRUE(io.ActiveFor(i, TableSet::Single(0)));
      } else {
        EXPECT_EQ(i.tables, TableSet::FirstN(2));
        EXPECT_FALSE(io.ActiveFor(i, TableSet::Single(0)));
        EXPECT_TRUE(io.ActiveFor(i, TableSet::FirstN(2)));
      }
    }
  }
  EXPECT_EQ(order_by_interests, 2);
}

TEST_F(InterestingOrdersTest, GroupByFullSetAndProjections) {
  QueryBuilder qb(catalog_);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a");
  qb.GroupBy({{"t0", "c"}, {"t1", "c"}});
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  InterestingOrders io(*g);
  int group_interests = 0;
  for (const OrderInterest& i : io.interests()) {
    if (i.source == OrderSource::kGroupBy) ++group_interests;
  }
  // Full set + one projection per table.
  EXPECT_EQ(group_interests, 3);
}

TEST_F(InterestingOrdersTest, JoinInterestRetiresWhenPredicateConsumed) {
  QueryBuilder qb(catalog_);
  qb.AddTable("T0", "t0").AddTable("T1", "t1").AddTable("T2", "t2");
  qb.Join("t0", "a", "t1", "a").Join("t1", "b", "t2", "b");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  InterestingOrders io(*g);

  const OrderInterest* t0a = nullptr;
  const OrderInterest* t1b = nullptr;
  for (const OrderInterest& i : io.interests()) {
    if (i.order == OrderProperty({ColumnRef(0, 0)})) t0a = &i;
    if (i.order == OrderProperty({ColumnRef(1, 1)})) t1b = &i;
  }
  ASSERT_NE(t0a, nullptr);
  ASSERT_NE(t1b, nullptr);
  // t0.a interesting at {0}, retired once {0,1} joined.
  EXPECT_TRUE(io.ActiveFor(*t0a, TableSet::Single(0)));
  EXPECT_FALSE(io.ActiveFor(*t0a, TableSet::FirstN(2)));
  // t1.b stays interesting at {0,1} (t2 still outside), retires at {0,1,2}.
  EXPECT_TRUE(io.ActiveFor(*t1b, TableSet::FirstN(2)));
  EXPECT_FALSE(io.ActiveFor(*t1b, TableSet::FirstN(3)));
}

TEST_F(InterestingOrdersTest, OrderByNeverRetires) {
  QueryBuilder qb(catalog_);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a");
  qb.OrderBy({{"t0", "b"}});
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  InterestingOrders io(*g);
  for (const OrderInterest& i : io.interests()) {
    if (i.source == OrderSource::kOrderBy) {
      EXPECT_TRUE(io.ActiveFor(i, TableSet::FirstN(2)));
    }
  }
}

TEST_F(InterestingOrdersTest, UsefulRespectsSemantics) {
  QueryBuilder qb(catalog_);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a");
  qb.GroupBy({{"t0", "c"}, {"t0", "d"}});
  qb.OrderBy({{"t0", "b"}});
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  InterestingOrders io(*g);
  TableSet t0 = TableSet::Single(0);
  // The base entry's equivalence (no equivalences) and its interests.
  ColumnIds ids;
  ids.Build(*g);
  EntryEquivalence eq;
  std::vector<int> preds;
  eq.Build(ids, *g, t0, &preds);
  eq.BuildInterests(io, t0);

  // (b) satisfies the ORDER BY interest via prefix.
  EXPECT_TRUE(eq.Useful(OrderProperty({ColumnRef(0, 1)})));
  // (d,c) satisfies the GROUP BY via set semantics.
  EXPECT_TRUE(eq.Useful(OrderProperty({ColumnRef(0, 3), ColumnRef(0, 2)})));
  // (d) alone covers only part of the grouping set of t0: there is also a
  // per-table projection interest {c,d} for t0, which (d) doesn't cover.
  EXPECT_FALSE(eq.Useful(OrderProperty({ColumnRef(0, 3)})));
  // DC is never "useful".
  EXPECT_FALSE(eq.Useful(OrderProperty::None()));
}

}  // namespace
}  // namespace cote

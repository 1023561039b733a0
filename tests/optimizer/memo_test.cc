#include "optimizer/memo.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "query/query_builder.h"

namespace cote {
namespace {

class MemoTest : public ::testing::Test {
 protected:
  MemoTest() {
    for (int i = 0; i < 3; ++i) {
      TableBuilder b("T" + std::to_string(i), 1000);
      b.Col("a", ColumnType::kInt, 100).Col("b", ColumnType::kInt, 10);
      EXPECT_TRUE(catalog_.AddTable(b.Build()).ok());
    }
    QueryBuilder qb(catalog_);
    qb.AddTable("T0", "t0").AddTable("T1", "t1").AddTable("T2", "t2");
    qb.Join("t0", "a", "t1", "a").Join("t1", "b", "t2", "b");
    auto g = qb.Build();
    EXPECT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }

  Plan* MakePlan(Memo* memo, double cost, OrderProperty order,
                 PartitionProperty part = PartitionProperty::Serial()) {
    Plan* p = memo->NewPlan();
    p->cost = cost;
    p->order = std::move(order);
    p->partition = std::move(part);
    return p;
  }

  Catalog catalog_;
  QueryGraph graph_;
};

TEST_F(MemoTest, GetOrCreateIdempotent) {
  Memo memo(graph_);
  bool created = false;
  MemoEntry* e1 = memo.GetOrCreate(TableSet::Single(0), &created);
  EXPECT_TRUE(created);
  MemoEntry* e2 = memo.GetOrCreate(TableSet::Single(0), &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(memo.num_entries(), 1);
  EXPECT_EQ(memo.Find(TableSet::Single(1)), nullptr);
}

TEST_F(MemoTest, EntryEquivalenceFromAppliedPredicates) {
  Memo memo(graph_);
  MemoEntry* e01 = memo.GetOrCreate(TableSet::FirstN(2));
  EXPECT_TRUE(e01->equivalence().Equivalent(ColumnRef(0, 0), ColumnRef(1, 0)));
  // Predicate t1.b = t2.b not inside {0,1}.
  EXPECT_FALSE(e01->equivalence().Equivalent(ColumnRef(1, 1), ColumnRef(2, 1)));
  MemoEntry* all = memo.GetOrCreate(TableSet::FirstN(3));
  EXPECT_TRUE(all->equivalence().Equivalent(ColumnRef(1, 1), ColumnRef(2, 1)));
}

TEST_F(MemoTest, InsertKeepsCheaperSameProperty) {
  Memo memo(graph_);
  MemoEntry* e = memo.GetOrCreate(TableSet::Single(0));
  Plan* expensive = MakePlan(&memo, 100, OrderProperty::None());
  Plan* cheap = MakePlan(&memo, 10, OrderProperty::None());
  EXPECT_TRUE(memo.Insert(e, expensive));
  EXPECT_TRUE(memo.Insert(e, cheap));  // replaces
  ASSERT_EQ(e->plans().size(), 1u);
  EXPECT_EQ(e->plans()[0], cheap);
  // A later more expensive same-property plan is rejected.
  EXPECT_FALSE(memo.Insert(e, MakePlan(&memo, 50, OrderProperty::None())));
}

TEST_F(MemoTest, DistinctOrdersCoexist) {
  Memo memo(graph_);
  MemoEntry* e = memo.GetOrCreate(TableSet::Single(0));
  OrderProperty oa({ColumnRef(0, 0)}), ob({ColumnRef(0, 1)});
  EXPECT_TRUE(memo.Insert(e, MakePlan(&memo, 10, OrderProperty::None())));
  EXPECT_TRUE(memo.Insert(e, MakePlan(&memo, 20, oa)));
  EXPECT_TRUE(memo.Insert(e, MakePlan(&memo, 20, ob)));
  EXPECT_EQ(e->plans().size(), 3u);
}

TEST_F(MemoTest, GeneralOrderPrunesSpecific) {
  // Plan sharing (§5.2): a cheaper plan on (a,b) prunes a plan on (a).
  Memo memo(graph_);
  MemoEntry* e = memo.GetOrCreate(TableSet::Single(0));
  OrderProperty a({ColumnRef(0, 0)});
  OrderProperty ab({ColumnRef(0, 0), ColumnRef(0, 1)});
  EXPECT_TRUE(memo.Insert(e, MakePlan(&memo, 30, a)));
  EXPECT_TRUE(memo.Insert(e, MakePlan(&memo, 20, ab)));
  ASSERT_EQ(e->plans().size(), 1u);
  EXPECT_EQ(e->plans()[0]->order, ab);
  // And the reverse arrival order also converges to one plan.
  MemoEntry* e2 = memo.GetOrCreate(TableSet::Single(1));
  EXPECT_TRUE(memo.Insert(e2, MakePlan(&memo, 20, ab)));
  EXPECT_FALSE(memo.Insert(e2, MakePlan(&memo, 30, a)));
}

TEST_F(MemoTest, SpecificOrderSurvivesIfCheaper) {
  Memo memo(graph_);
  MemoEntry* e = memo.GetOrCreate(TableSet::Single(0));
  OrderProperty a({ColumnRef(0, 0)});
  OrderProperty ab({ColumnRef(0, 0), ColumnRef(0, 1)});
  EXPECT_TRUE(memo.Insert(e, MakePlan(&memo, 10, a)));
  EXPECT_TRUE(memo.Insert(e, MakePlan(&memo, 20, ab)));
  EXPECT_EQ(e->plans().size(), 2u);  // Pareto frontier
}

TEST_F(MemoTest, PartitionDominance) {
  Memo memo(graph_);
  MemoEntry* e = memo.GetOrCreate(TableSet::Single(0));
  PartitionProperty h = PartitionProperty::Hash({ColumnRef(0, 0)});
  // Replicated satisfies hash requirements, so a cheaper replicated plan
  // prunes the hash-partitioned one.
  EXPECT_TRUE(memo.Insert(
      e, MakePlan(&memo, 30, OrderProperty::None(), h)));
  EXPECT_TRUE(memo.Insert(
      e, MakePlan(&memo, 10, OrderProperty::None(),
                  PartitionProperty::Replicated())));
  ASSERT_EQ(e->plans().size(), 1u);
  EXPECT_EQ(e->plans()[0]->partition.kind(),
            PartitionProperty::Kind::kReplicated);
}

TEST_F(MemoTest, CheapestSatisfying) {
  Memo memo(graph_);
  MemoEntry* e = memo.GetOrCreate(TableSet::Single(0));
  OrderProperty a({ColumnRef(0, 0)});
  Plan* dc = MakePlan(&memo, 10, OrderProperty::None());
  Plan* ordered = MakePlan(&memo, 25, a);
  memo.Insert(e, dc);
  memo.Insert(e, ordered);
  EXPECT_EQ(e->Cheapest(), dc);
  EXPECT_EQ(e->CheapestSatisfying(a, PartitionProperty::Serial()), ordered);
  EXPECT_EQ(e->CheapestSatisfying(OrderProperty({ColumnRef(0, 1)}),
                                  PartitionProperty::Serial()),
            nullptr);
}

TEST_F(MemoTest, StatsAndMemory) {
  Memo memo(graph_);
  MemoEntry* e = memo.GetOrCreate(TableSet::Single(0));
  memo.Insert(e, MakePlan(&memo, 10, OrderProperty::None()));
  memo.Insert(e, MakePlan(&memo, 20, OrderProperty({ColumnRef(0, 0)})));
  EXPECT_EQ(memo.plans_allocated(), 2);
  EXPECT_EQ(memo.plans_stored(), 2);
  EXPECT_GT(memo.ApproxMemoryBytes(), 0);
  EXPECT_EQ(memo.entries_in_order().size(), 1u);
}

TEST_F(MemoTest, OuterEnabledFlagFromGraph) {
  QueryBuilder qb(catalog_);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a", JoinKind::kLeftOuter);
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  Memo memo(*g);
  EXPECT_TRUE(memo.GetOrCreate(TableSet::Single(0))->outer_enabled());
  EXPECT_FALSE(memo.GetOrCreate(TableSet::Single(1))->outer_enabled());
}

TEST_F(MemoTest, ShardsReadParentAndAdoptInShardOrder) {
  // Rank 1 in the parent; rank 2 split across two shards, as the
  // rank-parallel enumerator does.
  Memo memo(graph_);
  ResourceBudget parent_budget, shard_budget;
  memo.set_budget(&parent_budget);
  for (int t = 0; t < 3; ++t) memo.GetOrCreate(TableSet::Single(t));
  MemoEntry* t1 = memo.Find(TableSet::Single(1));
  MakePlan(&memo, 5, OrderProperty::None());
  memo.PrepareShards(2);
  auto* shard0 = memo.shard(0);
  auto* shard1 = memo.shard(1);
  shard0->set_budget(&shard_budget);

  // A lower-rank set resolves to the parent's entry.
  bool created = true;
  EXPECT_EQ(shard0->GetOrCreate(TableSet::Single(1), &created), t1);
  EXPECT_FALSE(created);
  EXPECT_EQ(shard0->Find(TableSet::Single(1)), t1);

  // A new set is the shard's own current entry, returned again on repeat.
  const TableSet s01 = TableSet::FirstN(2);
  const TableSet s12 = TableSet::Single(1).With(2);
  MemoEntry* e01 = shard0->GetOrCreate(s01, &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(shard0->GetOrCreate(s01, &created), e01);
  EXPECT_FALSE(created);
  EXPECT_EQ(shard0->Find(s01), e01);
  EXPECT_EQ(memo.Find(s01), nullptr);  // not adopted yet
  MemoEntry* e12 = shard1->GetOrCreate(s12, &created);
  EXPECT_TRUE(created);

  // Shard plans charge the shard's budget, never the parent's.
  Plan* p = shard0->NewPlan();
  p->cost = 10;
  EXPECT_TRUE(shard0->Insert(e01, p));
  shard1->NewPlan();
  EXPECT_EQ(shard_budget.plans_charged(), 1);
  EXPECT_EQ(parent_budget.plans_charged(), 1);
  EXPECT_EQ(memo.plans_allocated(), 1);

  memo.AdoptShardRank();
  const auto& order = memo.entries_in_order();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[3], e01);
  EXPECT_EQ(order[4], e12);
  EXPECT_EQ(memo.Find(s01), e01);
  EXPECT_EQ(memo.Find(s12), e12);
  EXPECT_EQ(memo.plans_allocated(), 3);
  ASSERT_EQ(e01->plans().size(), 1u);
  EXPECT_EQ(e01->plans()[0], p);
}

}  // namespace
}  // namespace cote

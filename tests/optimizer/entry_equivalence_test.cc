// Oracle for the per-entry equivalence (optimizer/properties/
// entry_equivalence.h). Every MEMO entry and every plan-counter entry
// state, built serially and through the rank-parallel enumerator's shards,
// must agree with the forms the representative array and the cached
// interests replaced:
//  * Find, for every column of the query, equals a ColumnEquivalence
//    union-find over the same inner predicates;
//  * the cached interests are the active interests, canonicalized, in
//    interest order;
//  * RetainOrder equals the per-call algorithm kept here as the reference
//    (canonicalize the order and every active interest, then apply the
//    prefix/set test) on every interest order, index order, order the
//    entry holds, and a set of join-column and long orders.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/plan_counter.h"
#include "optimizer/cost/cardinality.h"
#include "optimizer/cost/cost_model.h"
#include "optimizer/enumerator.h"
#include "optimizer/memo.h"
#include "optimizer/parallel_enumerator.h"
#include "optimizer/plan_generator.h"
#include "optimizer/properties/entry_equivalence.h"
#include "optimizer/properties/join_rules.h"
#include "query/equivalence.h"
#include "query/query_builder.h"
#include "tests/common/golden_shapes.h"

namespace cote {
namespace {

/// The union-find the representative array replaced, built directly from
/// the predicate list (not through the internal-predicate gather).
ColumnEquivalence ReferenceEquivalence(const QueryGraph& g, TableSet s) {
  ColumnEquivalence eq;
  for (const JoinPredicate& p : g.join_predicates()) {
    if (p.kind == JoinKind::kInner && s.Contains(p.left.table) &&
        s.Contains(p.right.table)) {
      eq.AddEquivalence(p.left, p.right);
    }
  }
  return eq;
}

/// The per-call retirement algorithm the cached interests replaced.
bool ReferenceRetain(const OrderProperty& order, TableSet s,
                     const ColumnEquivalence& eq,
                     const InterestingOrders& interesting,
                     OrderProperty* out) {
  *out = order.Canonicalize(eq);
  bool useful = false;
  if (!out->IsNone()) {
    for (const OrderInterest& i : interesting.interests()) {
      if (!interesting.ActiveFor(i, s)) continue;
      const OrderProperty canon = i.order.Canonicalize(eq);
      if (i.source == OrderSource::kGroupBy ? out->SatisfiesSet(canon)
                                            : out->SatisfiesPrefix(canon)) {
        useful = true;
        break;
      }
    }
  }
  if (!useful) *out = OrderProperty::None();
  return useful;
}

/// Orders to test retirement on in entry `s`: every interest, every index
/// of a table in `s`, each join predicate's columns both ways round, and
/// two long orders (all GROUP BY then ORDER BY columns, and its reverse).
std::vector<OrderProperty> CandidateOrders(const QueryGraph& g, TableSet s,
                                           const InterestingOrders& io) {
  std::vector<OrderProperty> out;
  for (const OrderInterest& i : io.interests()) out.push_back(i.order);
  for (int t : s) {
    for (const Index& idx : g.table_ref(t).table->indexes()) {
      OrderProperty o;
      for (int ord : idx.key_columns) o.Append(ColumnRef(t, ord));
      out.push_back(o);
    }
  }
  for (const JoinPredicate& p : g.join_predicates()) {
    out.push_back(OrderProperty{p.left});
    out.push_back(OrderProperty{p.left, p.right});
    out.push_back(OrderProperty{p.right, p.left});
  }
  std::vector<ColumnRef> all = g.group_by();
  all.insert(all.end(), g.order_by().begin(), g.order_by().end());
  out.push_back(OrderProperty(all));
  const std::vector<ColumnRef> reversed(all.rbegin(), all.rend());
  out.push_back(OrderProperty(reversed));
  return out;
}

/// Checks one entry's equivalence and RetainOrder against the references;
/// `held` are orders the entry holds (its counter list or plans' orders).
void CheckEntry(const QueryGraph& g, const InterestingOrders& io, TableSet s,
                const EntryEquivalence& eq,
                const std::vector<OrderProperty>& held) {
  SCOPED_TRACE("entry " + std::to_string(s.bits()));
  const ColumnEquivalence ref = ReferenceEquivalence(g, s);
  for (int t = 0; t < g.num_tables(); ++t) {
    for (int c = 0; c < g.table_ref(t).table->num_columns(); ++c) {
      ASSERT_EQ(eq.Find(ColumnRef(t, c)), ref.Find(ColumnRef(t, c)))
          << ColumnRef(t, c).ToString();
    }
  }
  std::vector<CanonicalInterest> expected;
  for (const OrderInterest& i : io.interests()) {
    if (!io.ActiveFor(i, s)) continue;
    expected.push_back(CanonicalInterest{i.order.Canonicalize(ref),
                                         i.source == OrderSource::kGroupBy});
  }
  ASSERT_EQ(eq.interests().size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(eq.interests()[k].order, expected[k].order) << k;
    EXPECT_EQ(eq.interests()[k].set_semantics, expected[k].set_semantics);
  }
  std::vector<OrderProperty> orders = CandidateOrders(g, s, io);
  orders.insert(orders.end(), held.begin(), held.end());
  for (const OrderProperty& o : orders) {
    OrderProperty got, want;
    const bool kept = RetainOrder(o, eq, &got);
    ASSERT_EQ(kept, ReferenceRetain(o, s, ref, io, &want)) << o.ToString();
    ASSERT_EQ(got, want) << o.ToString();
  }
}

/// Rank-parallel counting: worker shards bound to one parent counter,
/// each with its own cardinality model (the models memoize).
class ShardedCounting : public ShardedVisitor {
 public:
  ShardedCounting(PlanCounter* parent, const QueryGraph& g,
                  const InterestingOrders& io, const PlanGenOptions& plangen,
                  int workers)
      : parent_(parent) {
    for (int w = 0; w < workers; ++w) {
      cards_.emplace_back(g, /*use_key_refinement=*/false);
      shards_.emplace_back(g, io, cards_.back(), plangen);
      shards_.back().BindShard(parent);
    }
  }
  JoinVisitor* Shard(int w) override { return &shards_[w]; }
  void SetShardBudget(int w, ResourceBudget* b) override {
    shards_[w].set_budget(b);
  }
  void MergeRank() override {
    for (PlanCounter& shard : shards_) parent_->AdoptShardRank(&shard);
  }

 private:
  PlanCounter* parent_;
  std::deque<CardinalityModel> cards_;
  std::deque<PlanCounter> shards_;
};

/// Rank-parallel plan generation: one generator per shard-mode Memo.
class ShardedGeneration : public ShardedVisitor {
 public:
  ShardedGeneration(Memo* memo, const QueryGraph& g, const CostModel& cost,
                    const InterestingOrders& io, const PlanGenOptions& options,
                    int workers)
      : memo_(memo) {
    memo_->PrepareShards(workers);
    for (int w = 0; w < workers; ++w) {
      cards_.emplace_back(g, /*use_key_refinement=*/true);
      gens_.emplace_back(g, memo_->shard(w), cost, cards_.back(), io,
                         options);
    }
  }
  JoinVisitor* Shard(int w) override { return &gens_[w]; }
  void SetShardBudget(int w, ResourceBudget* b) override {
    memo_->shard(w)->set_budget(b);
  }
  void MergeRank() override { memo_->AdoptShardRank(); }

 private:
  Memo* memo_;
  std::deque<CardinalityModel> cards_;
  std::deque<PlanGenerator> gens_;
};

/// Counts and generates `g` serially and at 2 and 4 workers, checking every
/// entry each run creates.
void CheckGraph(const QueryGraph& g, int max_composite_inner,
                const PlanGenOptions& plangen) {
  InterestingOrders io(g);
  CardinalityModel simple(g, /*use_key_refinement=*/false);
  CardinalityModel refined(g, /*use_key_refinement=*/true);
  CostParams params;
  params.histogram_buckets = 0;  // costs play no part in the check
  CostModel cost(params);
  EnumeratorOptions opt;
  opt.max_composite_inner = max_composite_inner;
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    PlanCounter counter(g, io, simple, plangen);
    Memo memo(g);
    PlanGenerator generator(g, &memo, cost, refined, io, plangen);
    if (workers == 1) {
      JoinEnumerator(g, opt).Run(&counter);
      JoinEnumerator(g, opt).Run(&generator);
    } else {
      ParallelEnumerator par(workers);
      ShardedCounting counting(&counter, g, io, plangen, workers);
      par.Run(g, opt, &counting, nullptr);
      ShardedGeneration generating(&memo, g, cost, io, plangen, workers);
      par.Run(g, opt, &generating, nullptr);
    }
    int64_t states = 0;
    for (uint64_t bits = 1; bits < (uint64_t{1} << g.num_tables()); ++bits) {
      const PlanCounter::EntryState* state = counter.FindState(TableSet(bits));
      if (state == nullptr) continue;
      ++states;
      CheckEntry(g, io, TableSet(bits), state->equiv, state->orders);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(states, counter.num_entries());
    ASSERT_EQ(memo.num_entries(), counter.num_entries());
    for (const MemoEntry* e : memo.entries_in_order()) {
      std::vector<OrderProperty> held;
      for (const Plan* p : e->plans()) held.push_back(p->order);
      CheckEntry(g, io, e->set(), e->equivalence(), held);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

class EntryEquivalenceGoldenTest
    : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(EntryEquivalenceGoldenTest, MatchesReferenceSeriallyAndInShards) {
  const GoldenCase& gc = GetParam();
  auto catalog = MakeGoldenCatalog(gc.n);
  QueryGraph g = MakeGoldenShape(*catalog, gc.shape, gc.n);
  CheckGraph(g, gc.max_composite_inner, PlanGenOptions{});
}

/// The golden rows of up to 10 tables, which cover every shape and both
/// inner limits.
std::vector<GoldenCase> SmallGoldens() {
  std::vector<GoldenCase> out;
  for (const GoldenCase& gc : kGoldens) {
    if (gc.n <= 10) out.push_back(gc);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Goldens, EntryEquivalenceGoldenTest,
                         ::testing::ValuesIn(SmallGoldens()), GoldenCaseName);

/// Five 8-column tables with multi-column indexes (one longer than a
/// ColumnList holds inline) and catalog partitionings, joined by a
/// multi-predicate pair, a left outer join and a cycle, with ORDER BY and a
/// GROUP BY longer than the inline width.
class EntryEquivalenceMixedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_shared<Catalog>();
    for (int t = 0; t < 5; ++t) {
      TableBuilder b("T" + std::to_string(t), 1000 * (t + 1));
      for (int c = 0; c < 8; ++c) {
        b.Col("c" + std::to_string(c), ColumnType::kInt, 10 * (c + 1));
      }
      b.Idx("i01", {"c0", "c1"});
      b.Idx("wide", {"c2", "c3", "c4", "c5", "c6", "c7"});
      if (t % 3 == 0) b.HashPartition({"c0"});
      if (t % 3 == 1) b.Replicate();
      ASSERT_TRUE(catalog_->AddTable(b.Build()).ok());
    }
  }

  QueryGraph Build(bool closure) {
    QueryBuilder qb(*catalog_);
    for (int t = 0; t < 5; ++t) {
      qb.AddTable("T" + std::to_string(t), "t" + std::to_string(t));
    }
    qb.Join("t0", "c0", "t1", "c0").Join("t0", "c1", "t1", "c1");
    qb.Join("t1", "c2", "t2", "c2", JoinKind::kLeftOuter);
    qb.Join("t1", "c0", "t3", "c0").Join("t3", "c3", "t4", "c3");
    qb.Join("t4", "c1", "t0", "c1");
    qb.OrderBy({{"t0", "c5"}, {"t3", "c6"}});
    qb.GroupBy({{"t0", "c2"}, {"t0", "c3"}, {"t0", "c4"}, {"t3", "c2"},
                {"t3", "c4"}, {"t4", "c5"}, {"t4", "c6"}});
    if (closure) qb.WithTransitiveClosure();
    StatusOr<QueryGraph> g = qb.Build();
    EXPECT_TRUE(g.ok());
    return std::move(g).value();
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST_F(EntryEquivalenceMixedTest, MatchesReferenceSeriallyAndInShards) {
  for (bool closure : {false, true}) {
    SCOPED_TRACE(closure ? "transitive closure" : "as written");
    const QueryGraph g = Build(closure);
    ASSERT_GT(g.group_by().size(), ColumnList::kInline);
    PlanGenOptions serial;
    CheckGraph(g, 64, serial);
    PlanGenOptions shared_nothing;
    shared_nothing.parallel = true;
    shared_nothing.eager_partitions = true;
    CheckGraph(g, 2, shared_nothing);
  }
}

}  // namespace
}  // namespace cote

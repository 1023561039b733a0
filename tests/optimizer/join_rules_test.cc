// Unit cases for the per-join rules both visitors share
// (optimizer/properties/join_rules.h), on hand-built inputs. The
// end-to-end agreement of the two visitors is pinned by
// tests/integration/fig5_counts_test.cc; these cases pin each rule alone.

#include "optimizer/properties/join_rules.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "query/query_builder.h"

namespace cote {
namespace {

// Table refs of the query below and their column ordinals.
constexpr int kH = 0;  // hash-partitioned on a; indexes on (a) and (b, a)
constexpr int kR = 1;  // replicated
constexpr int kS = 2;  // single-node
constexpr int kA = 0;
constexpr int kB = 1;

/// h JOIN r ON h.a = r.a (predicate 0) JOIN s ON r.b = s.b (predicate 1).
class JoinRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_shared<Catalog>();
    TableBuilder h("H", 10000);
    h.Col("a", ColumnType::kInt, 1000).Col("b", ColumnType::kInt, 100);
    h.Idx("h_a", {"a"}).Idx("h_ba", {"b", "a"}).HashPartition({"a"});
    TableBuilder r("R", 100);
    r.Col("a", ColumnType::kInt, 100).Col("b", ColumnType::kInt, 10);
    r.Replicate();
    TableBuilder s("S", 1000);
    s.Col("a", ColumnType::kInt, 100).Col("b", ColumnType::kInt, 10);
    ASSERT_TRUE(catalog_->AddTable(h.Build()).ok());
    ASSERT_TRUE(catalog_->AddTable(r.Build()).ok());
    ASSERT_TRUE(catalog_->AddTable(s.Build()).ok());
    QueryBuilder qb(*catalog_);
    qb.AddTable("H", "h").AddTable("R", "r").AddTable("S", "s");
    qb.Join("h", "a", "r", "a").Join("r", "b", "s", "b");
    StatusOr<QueryGraph> g = qb.Build();
    ASSERT_TRUE(g.ok());
    graph_ = std::make_unique<QueryGraph>(std::move(g).value());
    ids_.Build(*graph_);
  }

  /// The equivalence of entry `s` (with the interests of `interesting`
  /// active there, if given), built as every entry builds it.
  EntryEquivalence Equivalence(
      TableSet s, const InterestingOrders* interesting = nullptr) const {
    EntryEquivalence equiv;
    std::vector<int> preds;
    equiv.Build(ids_, *graph_, s, &preds);
    if (interesting != nullptr) equiv.BuildInterests(*interesting, s);
    return equiv;
  }

  std::shared_ptr<Catalog> catalog_;
  std::unique_ptr<QueryGraph> graph_;
  ColumnIds ids_;
};

/// Runs the co-location rule over two explicit partition lists.
template <typename PartitionList>
bool Colocate(bool parallel, const std::vector<PartitionProperty>& outer,
              const std::vector<PartitionProperty>& inner,
              const std::vector<ColumnRef>& jcols,
              const EntryEquivalence& j, PartitionList* out) {
  return JoinPartitions(
      parallel,
      [&](int side, const auto& fn) {
        for (const PartitionProperty& p : side == 0 ? outer : inner) fn(p);
      },
      jcols, j, out);
}

PartitionProperty HashOn(ColumnRef c) { return PartitionProperty::Hash({c}); }

const ColumnRef kHa(kH, kA);
const ColumnRef kHb(kH, kB);
const ColumnRef kRa(kR, kA);
const ColumnRef kRb(kR, kB);

TEST_F(JoinRulesTest, EntryEquivalenceJoinsTheAppliedPredicateColumns) {
  EXPECT_FALSE(Equivalence(TableSet::Single(kH)).Equivalent(kHa, kRa));
  EntryEquivalence hr = Equivalence(TableSet::Single(kH).Union(
      TableSet::Single(kR)));
  EXPECT_TRUE(hr.Equivalent(kHa, kRa));
  EXPECT_FALSE(hr.Equivalent(kRb, ColumnRef(kS, kB)));  // not applied yet
}

TEST_F(JoinRulesTest, JoinColumnsAreCanonicalAndDeduped) {
  EntryEquivalence hr = Equivalence(TableSet::Single(kH).Union(
      TableSet::Single(kR)));
  ColumnList jcols;
  jcols.Append(kRb);  // stale content is cleared
  CanonicalJoinColumns(*graph_, {0, 0}, hr, &jcols);
  EXPECT_EQ(std::vector<ColumnRef>(jcols.begin(), jcols.end()),
            (std::vector<ColumnRef>{hr.Find(kHa)}));
}

TEST_F(JoinRulesTest, SerialModeHasOnlyTheSerialPartition) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(false, {HashOn(kHa)}, {HashOn(kRa)}, {kHa},
                        EntryEquivalence(), &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{PartitionProperty::Serial()}));
}

TEST_F(JoinRulesTest, KeepsHashOnJoinColumnSubsetDropsHashOnOtherColumns) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(true, {HashOn(kHa)}, {HashOn(kRb)}, {kHa, kRa},
                        EntryEquivalence(), &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{HashOn(kHa)}));
}

TEST_F(JoinRulesTest, PartitionInBothInputsAppearsOnceInInputOrder) {
  // In {h, r}, h.a and r.a are one class: both inputs offer its hash.
  EntryEquivalence hr = Equivalence(TableSet::Single(kH).Union(
      TableSet::Single(kR)));
  const ColumnRef a = hr.Find(kHa);
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(true, {HashOn(kHa)}, {HashOn(kRb), HashOn(kRa)},
                        {a, kRb}, hr, &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{HashOn(a), HashOn(kRb)}));
}

TEST_F(JoinRulesTest, TwoSingleNodeInputsGiveSingleNode) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(true, {PartitionProperty::SingleNode()},
                        {PartitionProperty::SingleNode()}, {kHa},
                        EntryEquivalence(), &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{
                     PartitionProperty::SingleNode()}));
}

TEST_F(JoinRulesTest, NoUsablePartitionIntroducesTheFreshTarget) {
  std::vector<PartitionProperty> out;
  EXPECT_TRUE(Colocate(true, {PartitionProperty::Replicated()},
                       {HashOn(kRb)}, {kRa, kHb}, EntryEquivalence(), &out));
  EXPECT_EQ(out,
            (std::vector<PartitionProperty>{PartitionProperty::Hash({kRa, kHb})}));
  // The counter's flavor: a reused list holding stale values gives the
  // same answer.
  std::vector<PartitionProperty> reused;
  reused.push_back(PartitionProperty::SingleNode());
  EXPECT_TRUE(Colocate(true, {PartitionProperty::Replicated()},
                       {HashOn(kRb)}, {kRa, kHb}, EntryEquivalence(),
                       &reused));
  ASSERT_EQ(reused.size(), 1u);
  EXPECT_EQ(reused[0], out[0]);
}

TEST_F(JoinRulesTest, NoJoinColumnsGiveSingleNode) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(true, {HashOn(kHa)}, {HashOn(kRa)}, {},
                        EntryEquivalence(), &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{
                     PartitionProperty::SingleNode()}));
}

TEST_F(JoinRulesTest, InputHashedOnExactlyTheJoinColumnsIsNotFresh) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(true, {PartitionProperty::Hash({kHa, kHb})}, {},
                        {kHb, kHa}, EntryEquivalence(), &out));
  EXPECT_EQ(out,
            (std::vector<PartitionProperty>{PartitionProperty::Hash({kHa, kHb})}));
}

TEST_F(JoinRulesTest, BasePartitionFollowsTheCatalogSpec) {
  EXPECT_EQ(BasePartition(*graph_, kH), HashOn(kHa));
  EXPECT_EQ(BasePartition(*graph_, kR), PartitionProperty::Replicated());
  EXPECT_EQ(BasePartition(*graph_, kS), PartitionProperty::SingleNode());
}

TEST_F(JoinRulesTest, IndexLeadsJoinOnlyOnItsLeadingColumn) {
  const std::vector<Index>& indexes = graph_->table_ref(kH).table->indexes();
  ASSERT_EQ(indexes.size(), 2u);
  EXPECT_TRUE(IndexLeadsJoin(*graph_, kH, indexes[0], {0}));   // (a)
  EXPECT_FALSE(IndexLeadsJoin(*graph_, kH, indexes[1], {0}));  // (b, a)
  EXPECT_FALSE(IndexLeadsJoin(*graph_, kH, Index{}, {0}));     // no key
  EXPECT_FALSE(IndexLeadsJoin(*graph_, kH, indexes[0], {}));   // no join
}

TEST_F(JoinRulesTest, ProbeIsColocatedWhenReplicatedOrHashedOnJoinColumns) {
  EntryEquivalence hr = Equivalence(TableSet::Single(kH).Union(
      TableSet::Single(kR)));
  const std::vector<ColumnRef> jcols = {hr.Find(kHa)};
  EXPECT_TRUE(ProbeColocated(PartitionProperty::Replicated(), jcols, hr));
  EXPECT_TRUE(ProbeColocated(HashOn(kRa), jcols, hr));  // ~ h.a
  EXPECT_FALSE(ProbeColocated(HashOn(kRb), jcols, hr));
  EXPECT_FALSE(ProbeColocated(PartitionProperty::SingleNode(), jcols, hr));
}

TEST_F(JoinRulesTest, JoinColumnOrderRetiresInsideTheEntryApplyingIt) {
  InterestingOrders interesting(*graph_);
  const OrderProperty on_ha({kHa});
  OrderProperty out;
  const TableSet h = TableSet::Single(kH);
  EXPECT_TRUE(RetainOrder(on_ha, Equivalence(h, &interesting), &out));
  EXPECT_EQ(out, on_ha);
  const TableSet hr = h.Union(TableSet::Single(kR));
  EXPECT_FALSE(RetainOrder(on_ha, Equivalence(hr, &interesting), &out));
  EXPECT_TRUE(out.IsNone());
}

}  // namespace
}  // namespace cote

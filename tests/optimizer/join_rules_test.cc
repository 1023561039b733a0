// Unit cases for the per-join rules both visitors share
// (optimizer/properties/join_rules.h), on hand-built inputs. The
// end-to-end agreement of the two visitors is pinned by
// tests/integration/fig5_counts_test.cc; these cases pin each rule alone.

#include "optimizer/properties/join_rules.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/slot_vector.h"
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
  }

  /// The equivalence of entry `s`, built by the shared rule.
  ColumnEquivalence Equivalence(TableSet s) const {
    ColumnEquivalence equiv;
    std::vector<int> preds;
    AddEntryEquivalences(*graph_, s, &preds, &equiv);
    return equiv;
  }

  std::shared_ptr<Catalog> catalog_;
  std::unique_ptr<QueryGraph> graph_;
};

/// Runs the co-location rule over two explicit partition lists.
template <typename PartitionList>
bool Colocate(bool parallel, const std::vector<PartitionProperty>& outer,
              const std::vector<PartitionProperty>& inner,
              const std::vector<ColumnRef>& jcols,
              const ColumnEquivalence& j, PartitionList* out) {
  PartitionProperty scratch;
  return JoinPartitions(
      parallel,
      [&](int side, const auto& fn) {
        for (const PartitionProperty& p : side == 0 ? outer : inner) fn(p);
      },
      jcols, j, &scratch, out);
}

PartitionProperty HashOn(ColumnRef c) { return PartitionProperty::Hash({c}); }

const ColumnRef kHa(kH, kA);
const ColumnRef kHb(kH, kB);
const ColumnRef kRa(kR, kA);
const ColumnRef kRb(kR, kB);

TEST_F(JoinRulesTest, EntryEquivalenceJoinsTheAppliedPredicateColumns) {
  EXPECT_FALSE(Equivalence(TableSet::Single(kH)).Equivalent(kHa, kRa));
  ColumnEquivalence hr = Equivalence(TableSet::Single(kH).Union(
      TableSet::Single(kR)));
  EXPECT_TRUE(hr.Equivalent(kHa, kRa));
  EXPECT_FALSE(hr.Equivalent(kRb, ColumnRef(kS, kB)));  // not applied yet
}

TEST_F(JoinRulesTest, JoinColumnsAreCanonicalAndDeduped) {
  ColumnEquivalence hr = Equivalence(TableSet::Single(kH).Union(
      TableSet::Single(kR)));
  std::vector<ColumnRef> jcols = {kRb};  // stale content is cleared
  CanonicalJoinColumns(*graph_, {0, 0}, hr, &jcols);
  EXPECT_EQ(jcols, (std::vector<ColumnRef>{hr.Find(kHa)}));
}

TEST_F(JoinRulesTest, SerialModeHasOnlyTheSerialPartition) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(false, {HashOn(kHa)}, {HashOn(kRa)}, {kHa},
                        ColumnEquivalence(), &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{PartitionProperty::Serial()}));
}

TEST_F(JoinRulesTest, KeepsHashOnJoinColumnSubsetDropsHashOnOtherColumns) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(true, {HashOn(kHa)}, {HashOn(kRb)}, {kHa, kRa},
                        ColumnEquivalence(), &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{HashOn(kHa)}));
}

TEST_F(JoinRulesTest, PartitionInBothInputsAppearsOnceInInputOrder) {
  // In {h, r}, h.a and r.a are one class: both inputs offer its hash.
  ColumnEquivalence hr = Equivalence(TableSet::Single(kH).Union(
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
                        ColumnEquivalence(), &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{
                     PartitionProperty::SingleNode()}));
}

TEST_F(JoinRulesTest, NoUsablePartitionIntroducesTheFreshTarget) {
  std::vector<PartitionProperty> out;
  EXPECT_TRUE(Colocate(true, {PartitionProperty::Replicated()},
                       {HashOn(kRb)}, {kRa, kHb}, ColumnEquivalence(), &out));
  EXPECT_EQ(out,
            (std::vector<PartitionProperty>{PartitionProperty::Hash({kRa, kHb})}));
  // The counter's flavor: a recycled SlotVector gives the same answer.
  SlotVector<PartitionProperty> slots;
  slots.push_back(PartitionProperty::SingleNode());
  EXPECT_TRUE(Colocate(true, {PartitionProperty::Replicated()},
                       {HashOn(kRb)}, {kRa, kHb}, ColumnEquivalence(),
                       &slots));
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0], out[0]);
}

TEST_F(JoinRulesTest, NoJoinColumnsGiveSingleNode) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(true, {HashOn(kHa)}, {HashOn(kRa)}, {},
                        ColumnEquivalence(), &out));
  EXPECT_EQ(out, (std::vector<PartitionProperty>{
                     PartitionProperty::SingleNode()}));
}

TEST_F(JoinRulesTest, InputHashedOnExactlyTheJoinColumnsIsNotFresh) {
  std::vector<PartitionProperty> out;
  EXPECT_FALSE(Colocate(true, {PartitionProperty::Hash({kHa, kHb})}, {},
                        {kHb, kHa}, ColumnEquivalence(), &out));
  EXPECT_EQ(out,
            (std::vector<PartitionProperty>{PartitionProperty::Hash({kHa, kHb})}));
}

TEST_F(JoinRulesTest, BasePartitionFollowsTheCatalogSpec) {
  std::vector<ColumnRef> cols;
  PartitionProperty out;
  BasePartition(*graph_, kH, &cols, &out);
  EXPECT_EQ(out, HashOn(kHa));
  BasePartition(*graph_, kR, &cols, &out);
  EXPECT_EQ(out, PartitionProperty::Replicated());
  BasePartition(*graph_, kS, &cols, &out);
  EXPECT_EQ(out, PartitionProperty::SingleNode());
  BasePartition(*graph_, kH, &cols, &out);  // reused after non-hash kinds
  EXPECT_EQ(out, HashOn(kHa));
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
  ColumnEquivalence hr = Equivalence(TableSet::Single(kH).Union(
      TableSet::Single(kR)));
  const std::vector<ColumnRef> jcols = {hr.Find(kHa)};
  PartitionProperty scratch;
  EXPECT_TRUE(ProbeColocated(PartitionProperty::Replicated(), jcols, hr,
                             &scratch));
  EXPECT_TRUE(ProbeColocated(HashOn(kRa), jcols, hr, &scratch));  // ~ h.a
  EXPECT_FALSE(ProbeColocated(HashOn(kRb), jcols, hr, &scratch));
  EXPECT_FALSE(ProbeColocated(PartitionProperty::SingleNode(), jcols, hr,
                              &scratch));
}

TEST_F(JoinRulesTest, JoinColumnOrderRetiresInsideTheEntryApplyingIt) {
  InterestingOrders interesting(*graph_);
  const OrderProperty on_ha({kHa});
  OrderProperty scratch, out;
  const TableSet h = TableSet::Single(kH);
  EXPECT_TRUE(RetainOrder(on_ha, h, Equivalence(h), interesting, &scratch,
                          &out));
  EXPECT_EQ(out, on_ha);
  const TableSet hr = h.Union(TableSet::Single(kR));
  EXPECT_FALSE(RetainOrder(on_ha, hr, Equivalence(hr), interesting, &scratch,
                           &out));
  EXPECT_TRUE(out.IsNone());
}

}  // namespace
}  // namespace cote

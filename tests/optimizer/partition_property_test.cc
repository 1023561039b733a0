#include "optimizer/properties/partition_property.h"

#include <gtest/gtest.h>

#include "query/equivalence.h"

namespace cote {
namespace {

ColumnRef C(int t, int c) { return ColumnRef(t, c); }

TEST(PartitionPropertyTest, Kinds) {
  EXPECT_EQ(PartitionProperty::Serial().kind(),
            PartitionProperty::Kind::kSerial);
  EXPECT_EQ(PartitionProperty::Replicated().kind(),
            PartitionProperty::Kind::kReplicated);
  EXPECT_EQ(PartitionProperty::SingleNode().kind(),
            PartitionProperty::Kind::kSingleNode);
  EXPECT_EQ(PartitionProperty::Hash({C(0, 0)}).kind(),
            PartitionProperty::Kind::kHash);
}

TEST(PartitionPropertyTest, HashKeysAreSetSemantics) {
  PartitionProperty a = PartitionProperty::Hash({C(1, 0), C(0, 0)});
  PartitionProperty b = PartitionProperty::Hash({C(0, 0), C(1, 0), C(0, 0)});
  EXPECT_EQ(a, b);  // sorted + deduped
  EXPECT_EQ(a.columns().size(), 2u);
}

TEST(PartitionPropertyTest, SerialSatisfiesEverythingRequiredSerial) {
  PartitionProperty req = PartitionProperty::Serial();
  EXPECT_TRUE(PartitionProperty::Serial().Satisfies(req));
  EXPECT_TRUE(PartitionProperty::Hash({C(0, 0)}).Satisfies(req));
  EXPECT_TRUE(PartitionProperty::Replicated().Satisfies(req));
}

TEST(PartitionPropertyTest, HashRequirement) {
  PartitionProperty req = PartitionProperty::Hash({C(0, 0)});
  EXPECT_TRUE(PartitionProperty::Hash({C(0, 0)}).Satisfies(req));
  EXPECT_FALSE(PartitionProperty::Hash({C(0, 1)}).Satisfies(req));
  // A replicated copy co-locates with any partitioning.
  EXPECT_TRUE(PartitionProperty::Replicated().Satisfies(req));
  EXPECT_FALSE(PartitionProperty::SingleNode().Satisfies(req));
}

TEST(PartitionPropertyTest, ReplicatedRequirement) {
  PartitionProperty req = PartitionProperty::Replicated();
  EXPECT_TRUE(PartitionProperty::Replicated().Satisfies(req));
  EXPECT_FALSE(PartitionProperty::Hash({C(0, 0)}).Satisfies(req));
  EXPECT_FALSE(PartitionProperty::SingleNode().Satisfies(req));
}

TEST(PartitionPropertyTest, SingleNodeRequirement) {
  PartitionProperty req = PartitionProperty::SingleNode();
  EXPECT_TRUE(PartitionProperty::SingleNode().Satisfies(req));
  EXPECT_TRUE(PartitionProperty::Replicated().Satisfies(req));
  EXPECT_FALSE(PartitionProperty::Hash({C(0, 0)}).Satisfies(req));
}

TEST(PartitionPropertyTest, KeysSubsetOf) {
  PartitionProperty p = PartitionProperty::Hash({C(0, 0)});
  std::vector<ColumnRef> jcols{C(0, 0), C(1, 1)};
  EXPECT_TRUE(p.KeysSubsetOf(jcols));
  EXPECT_FALSE(PartitionProperty::Hash({C(2, 2)}).KeysSubsetOf(jcols));
  EXPECT_FALSE(PartitionProperty::Replicated().KeysSubsetOf(jcols));
  // Composite keys: all must be join columns.
  EXPECT_TRUE(PartitionProperty::Hash({C(0, 0), C(1, 1)}).KeysSubsetOf(jcols));
  EXPECT_FALSE(
      PartitionProperty::Hash({C(0, 0), C(3, 3)}).KeysSubsetOf(jcols));
}

TEST(PartitionPropertyTest, CanonicalizeMergesEquivalentKeys) {
  ColumnEquivalence eq;
  eq.AddEquivalence(C(0, 0), C(1, 0));
  PartitionProperty on_s = PartitionProperty::Hash({C(1, 0)});
  PartitionProperty on_r = PartitionProperty::Hash({C(0, 0)});
  EXPECT_NE(on_s, on_r);
  EXPECT_EQ(on_s.Canonicalize(eq), on_r.Canonicalize(eq));
  // Non-hash kinds canonicalize to themselves.
  EXPECT_EQ(PartitionProperty::Replicated().Canonicalize(eq),
            PartitionProperty::Replicated());
}

TEST(PartitionPropertyTest, ToStringForms) {
  EXPECT_EQ(PartitionProperty::Serial().ToString(), "serial");
  EXPECT_EQ(PartitionProperty::Replicated().ToString(), "replicated");
  EXPECT_EQ(PartitionProperty::Hash({C(0, 0)}).ToString(), "hash(t0.c0)");
}

}  // namespace
}  // namespace cote

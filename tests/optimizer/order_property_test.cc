#include "optimizer/properties/order_property.h"

#include <gtest/gtest.h>

#include "query/equivalence.h"

namespace cote {
namespace {

ColumnRef C(int t, int c) { return ColumnRef(t, c); }

TEST(OrderPropertyTest, NoneAndBasics) {
  OrderProperty none = OrderProperty::None();
  EXPECT_TRUE(none.IsNone());
  EXPECT_EQ(none.size(), 0);
  EXPECT_EQ(none.ToString(), "DC");

  OrderProperty o({C(0, 1), C(1, 2)});
  EXPECT_FALSE(o.IsNone());
  EXPECT_EQ(o.size(), 2);
  EXPECT_EQ(o.ToString(), "(t0.c1,t1.c2)");
}

TEST(OrderPropertyTest, PrefixSatisfaction) {
  OrderProperty ab({C(0, 0), C(0, 1)});
  OrderProperty a({C(0, 0)});
  OrderProperty b({C(0, 1)});
  // Everything satisfies the empty requirement.
  EXPECT_TRUE(ab.SatisfiesPrefix(OrderProperty::None()));
  EXPECT_TRUE(a.SatisfiesPrefix(a));
  EXPECT_TRUE(ab.SatisfiesPrefix(a));   // (a,b) serves a request for (a)
  EXPECT_FALSE(a.SatisfiesPrefix(ab));  // (a) cannot serve (a,b)
  EXPECT_FALSE(ab.SatisfiesPrefix(b));  // b is not a leading prefix
  EXPECT_FALSE(OrderProperty::None().SatisfiesPrefix(a));
}

TEST(OrderPropertyTest, SetSatisfaction) {
  OrderProperty ba({C(0, 1), C(0, 0)});
  OrderProperty ab_req({C(0, 0), C(0, 1)});
  // Grouping on {a,b} is served by ANY permutation prefix.
  EXPECT_TRUE(ba.SatisfiesSet(ab_req));
  EXPECT_FALSE(ba.SatisfiesPrefix(ab_req));
  OrderProperty bc({C(0, 1), C(0, 2)});
  EXPECT_FALSE(bc.SatisfiesSet(ab_req));
  // Longer orders with the required set as prefix also qualify.
  OrderProperty bax({C(0, 1), C(0, 0), C(0, 7)});
  EXPECT_TRUE(bax.SatisfiesSet(ab_req));
  // But required columns buried after unrelated ones do not.
  OrderProperty xab({C(0, 7), C(0, 0), C(0, 1)});
  EXPECT_FALSE(xab.SatisfiesSet(ab_req));
}

TEST(OrderPropertyTest, StrictSubsumption) {
  OrderProperty a({C(0, 0)});
  OrderProperty ab({C(0, 0), C(0, 1)});
  // The paper's ≺: a ≺ ab (ab is more general).
  EXPECT_TRUE(a.StrictlySubsumedBy(ab));
  EXPECT_FALSE(ab.StrictlySubsumedBy(a));
  EXPECT_FALSE(a.StrictlySubsumedBy(a));
}

TEST(OrderPropertyTest, CanonicalizeMapsToRepresentatives) {
  ColumnEquivalence eq;
  eq.AddEquivalence(C(0, 0), C(1, 0));  // rep = t0.c0
  OrderProperty o({C(1, 0), C(1, 2)});
  OrderProperty canon = o.Canonicalize(eq);
  EXPECT_EQ(canon.columns()[0], C(0, 0));
  EXPECT_EQ(canon.columns()[1], C(1, 2));
}

TEST(OrderPropertyTest, CanonicalizeDropsDuplicates) {
  ColumnEquivalence eq;
  eq.AddEquivalence(C(0, 0), C(1, 0));
  // After R.a = S.a, an order (R.a, S.a, S.b) is really (rep, S.b).
  OrderProperty o({C(0, 0), C(1, 0), C(1, 1)});
  OrderProperty canon = o.Canonicalize(eq);
  EXPECT_EQ(canon.size(), 2);
  EXPECT_EQ(canon.columns()[0], C(0, 0));
  EXPECT_EQ(canon.columns()[1], C(1, 1));
}

TEST(OrderPropertyTest, EquivalentOrdersBecomeEqualAfterCanonicalization) {
  // The paper's example: orders on R.a and S.a are equivalent once
  // R.a = S.a has been applied (§3.3).
  ColumnEquivalence eq;
  eq.AddEquivalence(C(0, 0), C(1, 0));
  OrderProperty ra({C(0, 0)}), sa({C(1, 0)});
  EXPECT_NE(ra, sa);
  EXPECT_EQ(ra.Canonicalize(eq), sa.Canonicalize(eq));
}

TEST(OrderPropertyTest, ExtendSkipsExisting) {
  OrderProperty a({C(0, 0)});
  OrderProperty ext = a.Extend(OrderProperty({C(0, 0), C(0, 1)}));
  EXPECT_EQ(ext.size(), 2);
  EXPECT_EQ(ext.columns()[1], C(0, 1));
}

TEST(OrderPropertyTest, Tables) {
  OrderProperty o({C(2, 0), C(0, 1), C(2, 3)});
  EXPECT_EQ(o.Tables(), (std::vector<int>{2, 0}));
}

TEST(OrderPropertyTest, HashEqualForEqualOrders) {
  OrderPropertyHash h;
  OrderProperty a({C(0, 0), C(1, 1)});
  OrderProperty b({C(0, 0), C(1, 1)});
  OrderProperty c({C(1, 1), C(0, 0)});
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // order-sensitive (overwhelmingly likely)
}

}  // namespace
}  // namespace cote

#include "query/equivalence.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"

namespace cote {
namespace {

TEST(EquivalenceTest, UnknownColumnsAreTheirOwnClass) {
  ColumnEquivalence eq;
  ColumnRef a(0, 1);
  EXPECT_EQ(eq.Find(a), a);
  EXPECT_FALSE(eq.Equivalent(a, ColumnRef(0, 2)));
  EXPECT_TRUE(eq.Equivalent(a, a));
}

TEST(EquivalenceTest, SimplePair) {
  ColumnEquivalence eq;
  ColumnRef a(0, 0), b(1, 0);
  eq.AddEquivalence(a, b);
  EXPECT_TRUE(eq.Equivalent(a, b));
  // Representative is the minimum-encoded member.
  EXPECT_EQ(eq.Find(a), a);
  EXPECT_EQ(eq.Find(b), a);
}

TEST(EquivalenceTest, TransitiveChains) {
  ColumnEquivalence eq;
  ColumnRef a(0, 0), b(1, 0), c(2, 0), d(3, 0);
  eq.AddEquivalence(c, d);
  eq.AddEquivalence(a, b);
  eq.AddEquivalence(b, c);
  EXPECT_TRUE(eq.Equivalent(a, d));
  EXPECT_EQ(eq.Find(d), a);
  EXPECT_EQ(eq.Classes().size(), 1u);
  EXPECT_EQ(eq.Classes()[0].size(), 4u);
}

TEST(EquivalenceTest, DisjointClasses) {
  ColumnEquivalence eq;
  eq.AddEquivalence(ColumnRef(0, 0), ColumnRef(1, 0));
  eq.AddEquivalence(ColumnRef(2, 5), ColumnRef(3, 5));
  EXPECT_FALSE(eq.Equivalent(ColumnRef(0, 0), ColumnRef(2, 5)));
  auto classes = eq.Classes();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].size(), 2u);
  EXPECT_EQ(classes[1].size(), 2u);
}

TEST(EquivalenceTest, IdempotentAdds) {
  ColumnEquivalence eq;
  ColumnRef a(0, 0), b(1, 0);
  eq.AddEquivalence(a, b);
  eq.AddEquivalence(a, b);
  eq.AddEquivalence(b, a);
  EXPECT_EQ(eq.Classes().size(), 1u);
  EXPECT_EQ(eq.Classes()[0].size(), 2u);
}

TEST(EquivalenceTest, ClassesSortedAscending) {
  ColumnEquivalence eq;
  eq.AddEquivalence(ColumnRef(5, 0), ColumnRef(2, 0));
  eq.AddEquivalence(ColumnRef(2, 0), ColumnRef(7, 3));
  auto classes = eq.Classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0][0], ColumnRef(2, 0));
  EXPECT_EQ(classes[0][1], ColumnRef(5, 0));
  EXPECT_EQ(classes[0][2], ColumnRef(7, 3));
}

// Property sweep: merging stars of varying size always yields a single
// class whose representative is the minimum.
class EquivalenceStarTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceStarTest, StarMerge) {
  int n = GetParam();
  ColumnEquivalence eq;
  ColumnRef hub(3, 2);
  for (int i = 0; i < n; ++i) {
    eq.AddEquivalence(hub, ColumnRef(4 + i, 0));
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(eq.Find(ColumnRef(4 + i, 0)), hub);
  }
  EXPECT_EQ(eq.Classes().size(), 1u);
  EXPECT_EQ(eq.Classes()[0].size(), static_cast<size_t>(n + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EquivalenceStarTest,
                         ::testing::Values(1, 2, 5, 10, 30));

// Naive reference: every added column carries its class minimum as a
// label; a union relabels the whole losing class.
class NaiveEquivalence {
 public:
  void Add(ColumnRef a, ColumnRef b) {
    const uint32_t ka = a.Encode(), kb = b.Encode();
    label_.emplace(ka, ka);
    label_.emplace(kb, kb);
    const uint32_t la = label_[ka], lb = label_[kb];
    if (la == lb) return;
    const uint32_t lo = std::min(la, lb), hi = std::max(la, lb);
    for (auto& [key, label] : label_) {
      (void)key;
      if (label == hi) label = lo;
    }
  }

  ColumnRef Find(ColumnRef c) const {
    auto it = label_.find(c.Encode());
    if (it == label_.end()) return c;
    return ColumnRef(static_cast<int>(it->second >> 16),
                     static_cast<int>(it->second & 0xffff));
  }

  std::vector<std::vector<ColumnRef>> Classes() const {
    std::map<uint32_t, std::vector<ColumnRef>> by_label;
    for (const auto& [key, label] : label_) {
      by_label[label].push_back(ColumnRef(static_cast<int>(key >> 16),
                                          static_cast<int>(key & 0xffff)));
    }
    std::vector<std::vector<ColumnRef>> out;
    for (auto& [label, members] : by_label) {
      (void)label;
      if (members.size() >= 2) out.push_back(std::move(members));
    }
    return out;
  }

 private:
  std::map<uint32_t, uint32_t> label_;
};

// 1000 seeded AddEquivalence sequences, short and long (past the inline
// node capacity), over a column domain small enough to merge often: the
// union-find must agree with the naive reference on every Find root and
// on Classes(), before and after Flatten(), and again after a Clear() and
// rebuild of the same instance.
TEST(EquivalenceRandomTest, MatchesNaiveReference) {
  Rng rng(20031);
  ColumnEquivalence reused;
  for (int round = 0; round < 1000; ++round) {
    const int tables = static_cast<int>(rng.UniformRange(1, 12));
    const int columns = static_cast<int>(rng.UniformRange(1, 4));
    const int adds = static_cast<int>(rng.UniformRange(0, 48));
    std::vector<std::pair<ColumnRef, ColumnRef>> seq;
    for (int i = 0; i < adds; ++i) {
      auto pick = [&] {
        return ColumnRef(static_cast<int>(rng.Uniform(tables)),
                         static_cast<int>(rng.Uniform(columns)));
      };
      seq.emplace_back(pick(), pick());
    }
    NaiveEquivalence naive;
    ColumnEquivalence eq;
    reused.Clear();
    for (const auto& [a, b] : seq) {
      naive.Add(a, b);
      eq.AddEquivalence(a, b);
      reused.AddEquivalence(a, b);
    }
    auto check = [&](const ColumnEquivalence& got, const char* what) {
      SCOPED_TRACE(::testing::Message() << what << " round " << round);
      for (int t = 0; t <= tables; ++t) {
        for (int c = 0; c <= columns; ++c) {
          ColumnRef col(t, c);
          ASSERT_EQ(got.Find(col), naive.Find(col)) << col.ToString();
        }
      }
      ASSERT_EQ(got.Classes(), naive.Classes());
    };
    check(eq, "fresh");
    check(reused, "cleared and rebuilt");
    eq.Flatten();
    check(eq, "flattened");
  }
}

}  // namespace
}  // namespace cote

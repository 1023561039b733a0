#include "optimizer/enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <tuple>

#include "catalog/catalog.h"
#include "core/join_count_baseline.h"
#include "optimizer/parallel_enumerator.h"
#include "query/query_builder.h"

namespace cote {
namespace {

std::shared_ptr<Catalog> MakeCatalog(int n) {
  auto catalog = std::make_shared<Catalog>();
  for (int i = 0; i < n; ++i) {
    TableBuilder b("T" + std::to_string(i), 1000);
    b.Col("a", ColumnType::kInt, 100).Col("b", ColumnType::kInt, 100);
    EXPECT_TRUE(catalog->AddTable(b.Build()).ok());
  }
  return catalog;
}

QueryGraph MakeShape(const Catalog& catalog, int n, const std::string& shape) {
  QueryBuilder qb(catalog);
  for (int i = 0; i < n; ++i) {
    qb.AddTable("T" + std::to_string(i), "t" + std::to_string(i));
  }
  if (shape == "chain") {
    for (int i = 0; i + 1 < n; ++i) {
      qb.Join("t" + std::to_string(i), "a", "t" + std::to_string(i + 1), "a");
    }
  } else if (shape == "star") {
    for (int i = 1; i < n; ++i) {
      qb.Join("t0", "a", "t" + std::to_string(i), "a");
    }
  } else {  // clique
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        qb.Join("t" + std::to_string(i), "a", "t" + std::to_string(j), "b");
      }
    }
  }
  auto g = qb.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

EnumeratorOptions FullBushy() {
  EnumeratorOptions o;
  o.cartesian_when_card_one = false;  // pure connectivity-driven DP
  return o;
}

/// Recording visitor for structural assertions.
class RecordingVisitor : public JoinVisitor {
 public:
  void InitializeEntry(TableSet s) override { entries.push_back(s); }
  double EntryCardinality(TableSet s) override {
    // Never card-1 unless the test names a set: the Cartesian heuristic
    // stays off by default.
    return s == card_one ? 1.0 : 1000.0;
  }
  void OnJoin(TableSet outer, TableSet inner, const std::vector<int>& preds,
              bool cartesian) override {
    joins.push_back({outer, inner});
    pred_counts.push_back(static_cast<int>(preds.size()));
    pred_lists.push_back(preds);
    cartesians.push_back(cartesian);
  }

  TableSet card_one;  // the one set reported as a single row (empty: none)
  std::vector<TableSet> entries;
  std::vector<std::pair<TableSet, TableSet>> joins;
  std::vector<int> pred_counts;
  std::vector<std::vector<int>> pred_lists;
  std::vector<bool> cartesians;
};

// ---- Closed-formula property sweeps (validates both the enumerator and
// the Ono-Lohman baseline formulas against each other).

class ShapeCountTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(ShapeCountTest, MatchesClosedFormula) {
  auto [n, shape] = GetParam();
  auto catalog = MakeCatalog(n);
  QueryGraph g = MakeShape(*catalog, n, shape);
  EnumerationStats stats = JoinCountBaseline::CountJoins(g, FullBushy());
  int64_t expected = shape == "chain" ? JoinCountBaseline::ChainJoins(n)
                     : shape == "star" ? JoinCountBaseline::StarJoins(n)
                                       : JoinCountBaseline::CliqueJoins(n);
  EXPECT_EQ(stats.joins_unordered, expected) << shape << " n=" << n;
  // No outer joins: every unordered pair emits both orientations.
  EXPECT_EQ(stats.joins_ordered, 2 * expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeCountTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10),
                       ::testing::Values(std::string("chain"),
                                         std::string("star"),
                                         std::string("clique"))));

TEST(EnumeratorTest, EntriesAreConnectedSubgraphs) {
  auto catalog = MakeCatalog(5);
  QueryGraph g = MakeShape(*catalog, 5, "chain");
  RecordingVisitor v;
  JoinEnumerator e(g, FullBushy());
  e.Run(&v);
  for (TableSet s : v.entries) {
    EXPECT_TRUE(g.IsSubgraphConnected(s)) << s.ToString();
  }
  // Chain of 5: connected subsets = 5 singletons + 4+3+2+1 intervals.
  EXPECT_EQ(v.entries.size(), 15u);
}

TEST(EnumeratorTest, EntriesInitializedBeforeTheirJoins) {
  // Every OnJoin must see existing entries for outer, inner, AND the
  // joined set — and each entry is initialized exactly once.
  class OrderCheckingVisitor : public JoinVisitor {
   public:
    void InitializeEntry(TableSet s) override {
      EXPECT_EQ(std::find(seen.begin(), seen.end(), s), seen.end())
          << "double init of " << s.ToString();
      seen.push_back(s);
    }
    double EntryCardinality(TableSet s) override {
      (void)s;
      return 1000;
    }
    void OnJoin(TableSet outer, TableSet inner, const std::vector<int>&,
                bool) override {
      auto has = [&](TableSet s) {
        return std::find(seen.begin(), seen.end(), s) != seen.end();
      };
      EXPECT_TRUE(has(outer));
      EXPECT_TRUE(has(inner));
      EXPECT_TRUE(has(outer.Union(inner)));
    }
    std::vector<TableSet> seen;
  };
  auto catalog = MakeCatalog(4);
  QueryGraph g = MakeShape(*catalog, 4, "star");
  OrderCheckingVisitor v;
  JoinEnumerator e(g, FullBushy());
  e.Run(&v);
  EXPECT_FALSE(v.seen.empty());
}

TEST(EnumeratorTest, CompositeInnerLimit) {
  auto catalog = MakeCatalog(6);
  QueryGraph g = MakeShape(*catalog, 6, "chain");
  for (int limit : {1, 2, 3}) {
    EnumeratorOptions opt = FullBushy();
    opt.max_composite_inner = limit;
    RecordingVisitor v;
    JoinEnumerator e(g, opt);
    e.Run(&v);
    for (const auto& [outer, inner] : v.joins) {
      (void)outer;
      EXPECT_LE(inner.size(), limit);
    }
    // The final entry must still be reachable (left-deep always works on
    // connected graphs).
    EXPECT_NE(std::find(v.entries.begin(), v.entries.end(),
                        TableSet::FirstN(6)),
              v.entries.end());
  }
}

TEST(EnumeratorTest, LeftDeepCountsForChain) {
  // With inner limit 1 a chain of n has exactly sum over interval lengths
  // of (ways to extend by one end) joins: intervals [i,j] built from
  // [i+1,j] or [i,j-1] => (n-1) + 2*(number of intervals of length >= 3)…
  // simpler: count distinct (interval, removed-end) pairs.
  auto catalog = MakeCatalog(6);
  const int n = 6;
  QueryGraph g = MakeShape(*catalog, n, "chain");
  EnumeratorOptions opt = FullBushy();
  opt.max_composite_inner = 1;
  EnumerationStats stats = JoinCountBaseline::CountJoins(g, opt);
  int64_t expected = 0;
  for (int len = 2; len <= n; ++len) {
    int intervals = n - len + 1;
    expected += intervals * (len == 2 ? 1 : 2);  // extend left or right end
  }
  EXPECT_EQ(stats.joins_unordered, expected);
}

TEST(EnumeratorTest, DisconnectedGraphWithoutCartesianNeverCompletes) {
  auto catalog = MakeCatalog(4);
  QueryBuilder qb(*catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1").AddTable("T2", "t2");
  qb.Join("t0", "a", "t1", "a");  // t2 disconnected
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  RecordingVisitor v;
  JoinEnumerator e(*g, FullBushy());
  e.Run(&v);
  EXPECT_EQ(std::find(v.entries.begin(), v.entries.end(), TableSet::FirstN(3)),
            v.entries.end());
}

TEST(EnumeratorTest, CartesianWhenCardOne) {
  auto catalog = MakeCatalog(4);
  QueryBuilder qb(*catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1").AddTable("T2", "t2");
  qb.Join("t0", "a", "t1", "a");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());

  // A visitor whose cardinality model reports 1 row for t2.
  class CardOneVisitor : public RecordingVisitor {
   public:
    double EntryCardinality(TableSet s) override {
      return s == TableSet::Single(2) ? 1.0 : 1000.0;
    }
  };
  CardOneVisitor v;
  EnumeratorOptions opt;
  opt.cartesian_when_card_one = true;
  JoinEnumerator e(*g, opt);
  e.Run(&v);
  // The Cartesian product with t2 makes the full query reachable.
  EXPECT_NE(std::find(v.entries.begin(), v.entries.end(), TableSet::FirstN(3)),
            v.entries.end());
  bool saw_cartesian = false;
  for (bool c : v.cartesians) saw_cartesian |= c;
  EXPECT_TRUE(saw_cartesian);
}

TEST(EnumeratorTest, AllowAllCartesianCompletesDisconnected) {
  auto catalog = MakeCatalog(3);
  QueryBuilder qb(*catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  auto g = qb.Build();  // no predicates at all
  ASSERT_TRUE(g.ok());
  EnumeratorOptions opt;
  opt.allow_all_cartesian = true;
  RecordingVisitor v;
  JoinEnumerator e(*g, opt);
  e.Run(&v);
  EXPECT_NE(std::find(v.entries.begin(), v.entries.end(), TableSet::FirstN(2)),
            v.entries.end());
}

TEST(EnumeratorTest, OuterJoinRestrictsEmissions) {
  auto catalog = MakeCatalog(3);
  QueryBuilder qb(*catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a", JoinKind::kLeftOuter);
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  RecordingVisitor v;
  JoinEnumerator e(*g, FullBushy());
  e.Run(&v);
  // Only (t0 outer, t1 inner) is legal.
  ASSERT_EQ(v.joins.size(), 1u);
  EXPECT_EQ(v.joins[0].first, TableSet::Single(0));
  EXPECT_EQ(v.joins[0].second, TableSet::Single(1));
}

TEST(EnumeratorTest, MultiPredicateJoinReportsAllPredicates) {
  auto catalog = MakeCatalog(2);
  QueryBuilder qb(*catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a").Join("t0", "b", "t1", "b");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  RecordingVisitor v;
  JoinEnumerator e(*g, FullBushy());
  e.Run(&v);
  ASSERT_EQ(v.pred_counts.size(), 2u);  // two orientations
  EXPECT_EQ(v.pred_counts[0], 2);
}

TEST(EnumeratorTest, SingleTableQuery) {
  auto catalog = MakeCatalog(1);
  QueryBuilder qb(*catalog);
  qb.AddTable("T0", "t0");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  RecordingVisitor v;
  JoinEnumerator e(*g, FullBushy());
  EnumerationStats stats = e.Run(&v);
  EXPECT_EQ(stats.entries_created, 1);
  EXPECT_EQ(stats.joins_ordered, 0);
}

// ---- The enumeration rules under every enumerator. The rule tests above
// run only the serial JoinEnumerator; this suite runs their graphs
// through the top-down enumerator and the rank-parallel one too, and
// compares each with the serial run.

/// One rule test's graph and knobs.
struct RuleCase {
  const char* name;
  QueryGraph (*build)(const Catalog& catalog);
  EnumeratorOptions options;
  TableSet card_one;  // reported as a single row by the visitors
};

QueryGraph Chain6(const Catalog& catalog) {
  return MakeShape(catalog, 6, "chain");
}

QueryGraph T0T1JoinedT2Apart(const Catalog& catalog) {
  QueryBuilder qb(catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1").AddTable("T2", "t2");
  qb.Join("t0", "a", "t1", "a");
  auto g = qb.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

QueryGraph TwoTablesNoPredicate(const Catalog& catalog) {
  QueryBuilder qb(catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  auto g = qb.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

QueryGraph TwoTablesLeftOuter(const Catalog& catalog) {
  QueryBuilder qb(catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a", JoinKind::kLeftOuter);
  auto g = qb.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

QueryGraph TwoTablesTwoPredicates(const Catalog& catalog) {
  QueryBuilder qb(catalog);
  qb.AddTable("T0", "t0").AddTable("T1", "t1");
  qb.Join("t0", "a", "t1", "a").Join("t0", "b", "t1", "b");
  auto g = qb.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

EnumeratorOptions WithInnerLimit(int limit) {
  EnumeratorOptions o = FullBushy();
  o.max_composite_inner = limit;
  return o;
}

EnumeratorOptions AllowAllCartesian() {
  EnumeratorOptions o;
  o.allow_all_cartesian = true;
  return o;
}

const RuleCase kRuleCases[] = {
    {"CompositeInnerLimit1", Chain6, WithInnerLimit(1), TableSet()},
    {"CompositeInnerLimit2", Chain6, WithInnerLimit(2), TableSet()},
    {"CompositeInnerLimit3", Chain6, WithInnerLimit(3), TableSet()},
    {"DisconnectedWithoutCartesian", T0T1JoinedT2Apart, FullBushy(),
     TableSet()},
    {"CartesianWhenCardOne", T0T1JoinedT2Apart, EnumeratorOptions(),
     TableSet::Single(2)},
    {"AllowAllCartesian", TwoTablesNoPredicate, AllowAllCartesian(),
     TableSet()},
    {"OuterJoinOrientation", TwoTablesLeftOuter, FullBushy(), TableSet()},
    {"MultiPredicateJoin", TwoTablesTwoPredicates, FullBushy(), TableSet()},
};

// gtest lists a parameter by its printed value; print the case name, not
// the struct's bytes.
void PrintTo(const RuleCase& rc, std::ostream* os) { *os << rc.name; }

enum class RuleEnumerator { kTopDown, kParallel2, kParallel4 };

/// One enumerated join as the visitor saw it.
using RecordedJoin = std::tuple<uint64_t, uint64_t, std::vector<int>, bool>;

struct Recording {
  std::vector<uint64_t> entries;
  std::vector<RecordedJoin> joins;
  EnumerationStats stats;
};

Recording Collect(const RecordingVisitor& v, const EnumerationStats& stats) {
  Recording r;
  for (TableSet s : v.entries) r.entries.push_back(s.bits());
  for (size_t i = 0; i < v.joins.size(); ++i) {
    r.joins.emplace_back(v.joins[i].first.bits(), v.joins[i].second.bits(),
                         v.pred_lists[i], v.cartesians[i]);
  }
  r.stats = stats;
  return r;
}

/// Test sharded visitor: one RecordingVisitor per worker; every rank
/// barrier appends each shard's recordings to `merged`, in worker order.
class RecordingShards : public ShardedVisitor {
 public:
  RecordingShards(int workers, TableSet card_one) {
    merged.card_one = card_one;
    for (int w = 0; w < workers; ++w) {
      shards_.emplace_back();
      shards_.back().card_one = card_one;
    }
  }
  JoinVisitor* Shard(int worker) override {
    return &shards_[static_cast<size_t>(worker)];
  }
  void SetShardBudget(int, ResourceBudget*) override {}
  void MergeRank() override {
    for (RecordingVisitor& s : shards_) {
      auto append = [](auto* to, auto* from) {
        to->insert(to->end(), from->begin(), from->end());
        from->clear();
      };
      append(&merged.entries, &s.entries);
      append(&merged.joins, &s.joins);
      append(&merged.pred_counts, &s.pred_counts);
      append(&merged.pred_lists, &s.pred_lists);
      append(&merged.cartesians, &s.cartesians);
    }
  }

  RecordingVisitor merged;

 private:
  std::deque<RecordingVisitor> shards_;
};

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class EnumerationRulesTest
    : public ::testing::TestWithParam<std::tuple<RuleCase, RuleEnumerator>> {
};

TEST_P(EnumerationRulesTest, MatchesSerialEnumerator) {
  const auto& [rc, kind] = GetParam();
  auto catalog = MakeCatalog(6);
  QueryGraph g = rc.build(*catalog);

  RecordingVisitor sv;
  sv.card_one = rc.card_one;
  JoinEnumerator serial_enum(g, rc.options);
  const Recording serial = Collect(sv, serial_enum.Run(&sv));
  ASSERT_FALSE(serial.joins.empty());

  if (kind == RuleEnumerator::kTopDown) {
    // Top-down visits the same joins in another order.
    RecordingVisitor tv;
    tv.card_one = rc.card_one;
    EnumeratorOptions td = rc.options;
    td.kind = EnumeratorKind::kTopDown;
    const Recording top = Collect(tv, RunEnumeration(g, td, &tv));
    EXPECT_EQ(Sorted(top.entries), Sorted(serial.entries));
    EXPECT_EQ(Sorted(top.joins), Sorted(serial.joins));
    EXPECT_EQ(top.stats.entries_created, serial.stats.entries_created);
    EXPECT_EQ(top.stats.joins_unordered, serial.stats.joins_unordered);
    EXPECT_EQ(top.stats.joins_ordered, serial.stats.joins_ordered);
    return;
  }

  // Rank-parallel bottom-up replays the serial sequence exactly.
  const int workers = kind == RuleEnumerator::kParallel2 ? 2 : 4;
  RecordingShards shards(workers, rc.card_one);
  ParallelEnumerator par(workers);
  const ParallelEnumerationResult result =
      par.Run(g, rc.options, &shards, nullptr);
  const Recording parallel = Collect(shards.merged, result.stats);
  EXPECT_EQ(parallel.entries, serial.entries);
  EXPECT_EQ(parallel.joins, serial.joins);
  EXPECT_EQ(parallel.stats.entries_created, serial.stats.entries_created);
  EXPECT_EQ(parallel.stats.joins_unordered, serial.stats.joins_unordered);
  EXPECT_EQ(parallel.stats.joins_ordered, serial.stats.joins_ordered);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, EnumerationRulesTest,
    ::testing::Combine(::testing::ValuesIn(kRuleCases),
                       ::testing::Values(RuleEnumerator::kTopDown,
                                         RuleEnumerator::kParallel2,
                                         RuleEnumerator::kParallel4)),
    [](const ::testing::TestParamInfo<EnumerationRulesTest::ParamType>& info) {
      const RuleEnumerator kind = std::get<1>(info.param);
      return std::string(std::get<0>(info.param).name) +
             (kind == RuleEnumerator::kTopDown     ? "_TopDown"
              : kind == RuleEnumerator::kParallel2 ? "_Parallel2"
                                                   : "_Parallel4");
    });

}  // namespace
}  // namespace cote

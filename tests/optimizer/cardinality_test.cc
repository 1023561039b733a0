#include "optimizer/cost/cardinality.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/query_builder.h"
#include "tests/common/golden_shapes.h"
#include "workload/workload.h"

namespace cote {
namespace {

class CardinalityTest : public ::testing::Test {
 protected:
  CardinalityTest() {
    EXPECT_TRUE(catalog_
                    .AddTable(TableBuilder("fact", 100000)
                                  .Col("f_id", ColumnType::kBigInt, 100000)
                                  .Col("f_dim", ColumnType::kInt, 1000)
                                  .Col("f_x", ColumnType::kInt, 10)
                                  .PrimaryKey({"f_id"})
                                  .Build())
                    .ok());
    EXPECT_TRUE(catalog_
                    .AddTable(TableBuilder("dim", 1000)
                                  .Col("d_id", ColumnType::kInt, 1000)
                                  .Col("d_y", ColumnType::kInt, 10)
                                  .PrimaryKey({"d_id"})
                                  .Build())
                    .ok());
    EXPECT_TRUE(catalog_
                    .AddTable(TableBuilder("other", 5000)
                                  .Col("o_dim", ColumnType::kInt, 1000)
                                  .Col("o_z", ColumnType::kInt, 10)
                                  .Build())
                    .ok());
  }

  Catalog catalog_;
};

TEST_F(CardinalityTest, BaseRowsApplyLocalSelectivity) {
  QueryBuilder qb(catalog_);
  qb.AddTable("fact", "f");
  qb.Local("f", "f_x", LocalOp::kEq, 0.1);
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  CardinalityModel m(*g, true);
  EXPECT_NEAR(m.BaseRows(0), 10000, 1e-6);
}

TEST_F(CardinalityTest, FkPkJoinPreservesFactRows) {
  QueryBuilder qb(catalog_);
  qb.AddTable("fact", "f").AddTable("dim", "d");
  qb.Join("f", "f_dim", "d", "d_id");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  CardinalityModel m(*g, true);
  // 100000 * 1000 / max(1000,1000) = 100000.
  EXPECT_NEAR(m.JoinRows(TableSet::FirstN(2)), 100000, 1);
}

TEST_F(CardinalityTest, KeyRefinementCapsResult) {
  QueryBuilder qb(catalog_);
  qb.AddTable("fact", "f").AddTable("dim", "d");
  qb.Join("f", "f_dim", "d", "d_id");
  // Extra filter on dim: refined estimate must not exceed fact rows.
  qb.Local("d", "d_y", LocalOp::kEq, 0.5);
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  CardinalityModel refined(*g, true);
  CardinalityModel simple(*g, false);
  double r = refined.JoinRows(TableSet::FirstN(2));
  double s = simple.JoinRows(TableSet::FirstN(2));
  EXPECT_LE(r, s + 1e-9);        // refinement can only reduce
  EXPECT_LE(r, 100000 * 0.5 + 1);  // capped at fact rows × dim filter
}

TEST_F(CardinalityTest, SimpleModelSkipsRefinement) {
  QueryBuilder qb(catalog_);
  qb.AddTable("fact", "f").AddTable("dim", "d");
  qb.Join("f", "f_dim", "d", "d_id");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  CardinalityModel simple(*g, false);
  EXPECT_FALSE(simple.use_key_refinement());
  // Raw: 1e5 * 1e3 * 1e-3 = 1e5 (same here since no extra filters).
  EXPECT_NEAR(simple.JoinRows(TableSet::FirstN(2)), 100000, 1);
}

TEST_F(CardinalityTest, TransitiveClosureNotDoubleCounted) {
  // Triangle f.f_dim = d.d_id = o.o_dim: the derived predicate must not
  // multiply selectivity a third time.
  QueryBuilder qb(catalog_);
  qb.AddTable("fact", "f").AddTable("dim", "d").AddTable("other", "o");
  qb.Join("f", "f_dim", "d", "d_id").Join("d", "d_id", "o", "o_dim");
  qb.WithTransitiveClosure();
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->join_predicates().size(), 3u);  // 2 written + 1 derived
  CardinalityModel m(*g, false);
  // Spanning tree applies 2 of the 3 equivalent selectivities:
  // 1e5 * 1e3 * 5e3 * 1e-3 * 1e-3 = 5e5.
  EXPECT_NEAR(m.JoinRows(TableSet::FirstN(3)), 500000, 500000 * 0.01);
}

TEST_F(CardinalityTest, CachedResultsStable) {
  QueryBuilder qb(catalog_);
  qb.AddTable("fact", "f").AddTable("dim", "d");
  qb.Join("f", "f_dim", "d", "d_id");
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  CardinalityModel m(*g, true);
  double first = m.JoinRows(TableSet::FirstN(2));
  double second = m.JoinRows(TableSet::FirstN(2));
  EXPECT_DOUBLE_EQ(first, second);
}

TEST_F(CardinalityTest, NeverBelowFloor) {
  QueryBuilder qb(catalog_);
  qb.AddTable("dim", "d").AddTable("other", "o");
  qb.Join("d", "d_id", "o", "o_dim");
  qb.Local("d", "d_y", LocalOp::kEq, 1e-9);
  qb.Local("o", "o_z", LocalOp::kEq, 1e-9);
  auto g = qb.Build();
  ASSERT_TRUE(g.ok());
  CardinalityModel m(*g, true);
  EXPECT_GT(m.JoinRows(TableSet::FirstN(2)), 0);
}

// ---- Reference: the map-based JoinRows the member-scratch version
// replaced, kept verbatim in structure (per-call maps, per-class sorted
// selectivity vectors, recursion through its own std::map memo) so the
// production model can be pinned to it bit for bit.
class ReferenceCardinality {
 public:
  ReferenceCardinality(const QueryGraph& graph, bool use_key_refinement)
      : graph_(graph), use_key_refinement_(use_key_refinement) {}

  double BaseRows(int table_ref) const {
    const Table* t = graph_.table_ref(table_ref).table;
    double rows = t->row_count() * graph_.LocalSelectivity(table_ref);
    return std::max(rows, 0.1);
  }

  double JoinRows(TableSet s) {
    if (s.size() == 1) return BaseRows(s.First());
    if (auto it = cache_.find(s.bits()); it != cache_.end()) return it->second;

    double rows = 1.0;
    for (int t : s) rows *= BaseRows(t);
    const ColumnEquivalence& equiv = graph_.GlobalEquivalence();
    std::map<uint32_t, std::vector<double>> class_sels;
    std::map<uint32_t, TableSet> class_cols;
    std::vector<double> independent_sels;
    for (const JoinPredicate& p : graph_.join_predicates()) {
      if (!s.Contains(p.left.table) || !s.Contains(p.right.table)) continue;
      if (p.kind == JoinKind::kInner && equiv.Equivalent(p.left, p.right)) {
        uint32_t cls = equiv.Find(p.left).Encode();
        class_sels[cls].push_back(p.selectivity);
        class_cols[cls] =
            class_cols[cls].With(p.left.table).With(p.right.table);
      } else {
        independent_sels.push_back(p.selectivity);
      }
    }
    for (auto& [cls, sels] : class_sels) {
      std::sort(sels.begin(), sels.end());
      int distinct_tables = class_cols[cls].size();
      int to_apply = std::min<int>(static_cast<int>(sels.size()),
                                   std::max(0, distinct_tables - 1));
      for (int i = 0; i < to_apply; ++i) rows *= sels[i];
    }
    for (double sel : independent_sels) rows *= sel;
    rows = std::max(rows, 0.01);

    if (use_key_refinement_) {
      for (const JoinPredicate& p : graph_.join_predicates()) {
        if (!s.Contains(p.left.table) || !s.Contains(p.right.table)) continue;
        for (const ColumnRef& side : {p.left, p.right}) {
          const Table* tab = graph_.table_ref(side.table).table;
          bool unique = tab->column(side.column).ndv >= tab->row_count() - 0.5;
          if (!unique) continue;
          TableSet rest = s.Minus(TableSet::Single(side.table));
          if (rest.empty()) continue;
          double rest_rows = JoinRows(rest);
          double filter = graph_.LocalSelectivity(side.table);
          rows = std::min(rows, std::max(rest_rows * filter, 0.01));
        }
      }
    }
    cache_.emplace(s.bits(), rows);
    return rows;
  }

 private:
  const QueryGraph& graph_;
  bool use_key_refinement_;
  std::map<uint64_t, double> cache_;
};

/// Checks every connected subset of `g` under both models against the
/// reference, with exact equality. Sets are visited in descending mask
/// order, so the refined model meets most sets first through its own
/// recursion and the rest cold. Returns the number of sets checked.
int ExpectMatchesReference(const QueryGraph& g, const std::string& label) {
  int checked = 0;
  for (bool refined : {false, true}) {
    CardinalityModel model(g, refined);
    ReferenceCardinality reference(g, refined);
    const uint64_t all = g.AllTables().bits();
    for (uint64_t bits = all; bits != 0; --bits) {
      const TableSet s(bits);
      if (!g.IsSubgraphConnected(s)) continue;
      const double got = model.JoinRows(s);
      const double want = reference.JoinRows(s);
      EXPECT_TRUE(got == want)
          << label << (refined ? " refined" : " simple") << " set " << bits
          << ": " << got << " != " << want;
      ++checked;
    }
  }
  return checked;
}

TEST(CardinalityReferenceTest, GoldenShapesMatchMapReferenceExactly) {
  const struct {
    const char* shape;
    int n;
  } kShapes[] = {
      {"linear", 4}, {"linear", 8}, {"linear", 10}, {"linear", 12},
      {"linear", 14}, {"star", 4},  {"star", 8},    {"star", 10},
      {"star", 12},  {"star", 14},  {"cyclic", 5},  {"cyclic", 8},
      {"cyclic", 10}, {"random", 8}, {"random", 10}, {"random", 12},
      {"random", 14},
  };
  for (const auto& c : kShapes) {
    auto catalog = MakeGoldenCatalog(c.n);
    QueryGraph g = MakeGoldenShape(*catalog, c.shape, c.n);
    EXPECT_GT(ExpectMatchesReference(g, c.shape + std::to_string(c.n)), 0);
  }
}

// The SQL workloads over the TPC-H and retail schemas: parsed and bound,
// so their graphs carry outer joins, derived predicates and local filters.
TEST(CardinalityReferenceTest, SqlWorkloadsMatchMapReferenceExactly) {
  for (const Workload& w : {TpchFullWorkload(), TpchWorkload(),
                            Real1Workload(), Real2Workload()}) {
    ASSERT_GT(w.size(), 0) << w.name;
    for (int q = 0; q < w.size(); ++q) {
      const std::string label = w.name + " " + w.labels[q];
      EXPECT_GT(ExpectMatchesReference(w.queries[q], label), 0);
    }
  }
}

// A rebound model forgets the previous query: after serving one graph it
// answers another exactly like a fresh model (and the reference).
TEST(CardinalityReferenceTest, RebindForgetsPreviousQuery) {
  Workload w = TpchWorkload();
  ASSERT_GE(w.size(), 2);
  for (bool refined : {false, true}) {
    CardinalityModel model(w.queries[0], refined);
    model.JoinRows(w.queries[0].AllTables());
    for (int q = 1; q < w.size(); ++q) {
      const QueryGraph& g = w.queries[q];
      model.Rebind(g);
      ReferenceCardinality reference(g, refined);
      for (uint64_t bits = g.AllTables().bits(); bits != 0; --bits) {
        const TableSet s(bits);
        if (!g.IsSubgraphConnected(s)) continue;
        EXPECT_TRUE(model.JoinRows(s) == reference.JoinRows(s))
            << w.labels[q] << " set " << bits;
      }
    }
  }
}

}  // namespace
}  // namespace cote

// Runtime half of the hot-path purity contract (the static half is
// tools/hotpath_lint.py): after one warm-up enumeration, re-running the
// same enumeration must perform ZERO heap allocations — every buffer the
// hot path touches is scratch whose capacity survives across runs.
//
// Covered modes (n = 12, the paper's DP sweet spot, on three shapes):
//  * estimate mode: JoinEnumerator driving a PlanCounter with default
//    options (serial, kSeparate) — the configuration whose per-join cost
//    the paper's estimator charges;
//  * pure enumeration: JoinEnumerator driving a do-nothing visitor, which
//    isolates the enumeration substrate itself.
// The SQL lexer has a bound instead of a zero: two allocations per
// statement, whatever its token count.
//
// The test uses the counting operator-new hook from
// tests/common/alloc_guard.h; this TU provides the hook's definitions, so
// this file must stay in its own test binary.

#define COTE_ALLOC_GUARD_IMPLEMENT
#include "tests/common/alloc_guard.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "core/plan_counter.h"
#include "optimizer/cost/cardinality.h"
#include "optimizer/enumerator.h"
#include "optimizer/properties/interesting_orders.h"
#include "parser/lexer.h"
#include "query/query_builder.h"
#include "tests/common/golden_shapes.h"

namespace cote {
namespace {

constexpr int kNumTables = 12;

/// Visitor that does nothing: isolates the enumeration substrate.
class NullVisitor : public JoinVisitor {
 public:
  void InitializeEntry(TableSet) override {}
  double EntryCardinality(TableSet) override { return 1000.0; }
  void OnJoin(TableSet, TableSet, const std::vector<int>&, bool) override {}
};

// The hook must actually be linked in, otherwise every zero-delta below
// would be vacuous.
TEST(AllocGuard, CountsHeapAllocations) {
  testing::AllocationCounter alloc;
  auto* v = new std::vector<int>(64);
  EXPECT_GT(alloc.delta(), 0);
  delete v;
}

class HotpathAllocTest : public ::testing::TestWithParam<const char*> {};

// The per-entry union-find of a recycled counter slot: a Clear() and a
// rebuild to the same size reuse the storage the first build grew, both
// inside the inline nodes and past them (spilled).
TEST(EquivalenceAllocTest, ClearAndRebuildOfSameSizeAllocatesNothing) {
  for (int chain : {3, 40}) {
    SCOPED_TRACE(chain);
    ColumnEquivalence eq;
    auto build = [&] {
      for (int t = 0; t < chain; ++t) {
        eq.AddEquivalence(ColumnRef(t, 0), ColumnRef(t + 1, 1));
        eq.AddEquivalence(ColumnRef(t + 1, 1), ColumnRef(t + 1, 0));
      }
    };
    build();
    eq.Clear();
    testing::AllocationCounter counter;
    build();
    EXPECT_EQ(eq.Find(ColumnRef(chain, 1)), ColumnRef(0, 0));
    eq.Clear();
    build();
    EXPECT_EQ(counter.delta(), 0);
  }
}

TEST_P(HotpathAllocTest, EstimateModeSteadyStateAllocatesNothing) {
  auto catalog = MakeGoldenCatalog(kNumTables);
  QueryGraph g = MakeGoldenShape(*catalog, GetParam(), kNumTables);
  InterestingOrders interesting(g);
  CardinalityModel card(g, /*use_key_refinement=*/false);

  EnumeratorOptions opt;
  opt.max_composite_inner = 2;  // the paper's DP limit
  PlanCounter counter(g, interesting, card, PlanGenOptions{});
  JoinEnumerator enumerator(g, opt);

  // Warm-up: builds the MEMO index, entry states, property lists, the
  // cardinality cache, and every scratch buffer's capacity.
  EnumerationStats first = enumerator.Run(&counter);
  const int64_t nljn1 = counter.estimated_plans().nljn();
  const int64_t mgjn1 = counter.estimated_plans().mgjn();
  const int64_t hsjn1 = counter.estimated_plans().hsjn();

  testing::AllocationCounter alloc;
  EnumerationStats second = enumerator.Run(&counter);
  EXPECT_EQ(alloc.delta(), 0)
      << "estimate-mode steady state performed heap allocations";

  // The steady-state run must also be behaviorally identical: same join
  // sequence (stats equal) and exactly-doubled accumulated plan counts.
  EXPECT_EQ(second.entries_created, first.entries_created);
  EXPECT_EQ(second.joins_unordered, first.joins_unordered);
  EXPECT_EQ(second.joins_ordered, first.joins_ordered);
  EXPECT_EQ(counter.estimated_plans().nljn(), 2 * nljn1);
  EXPECT_EQ(counter.estimated_plans().mgjn(), 2 * mgjn1);
  EXPECT_EQ(counter.estimated_plans().hsjn(), 2 * hsjn1);
}

TEST_P(HotpathAllocTest, NullVisitorSteadyStateAllocatesNothing) {
  auto catalog = MakeGoldenCatalog(kNumTables);
  QueryGraph g = MakeGoldenShape(*catalog, GetParam(), kNumTables);

  EnumeratorOptions opt;
  opt.max_composite_inner = 2;
  NullVisitor visitor;
  JoinEnumerator enumerator(g, opt);

  EnumerationStats first = enumerator.Run(&visitor);
  testing::AllocationCounter alloc;
  EnumerationStats second = enumerator.Run(&visitor);
  EXPECT_EQ(alloc.delta(), 0)
      << "pure enumeration steady state performed heap allocations";
  EXPECT_EQ(second.entries_created, first.entries_created);
  EXPECT_EQ(second.joins_unordered, first.joins_unordered);
  EXPECT_EQ(second.joins_ordered, first.joins_ordered);
}

TEST(HotpathAllocFullBushyTest, LinearFullBushySteadyStateAllocatesNothing) {
  auto catalog = MakeGoldenCatalog(kNumTables);
  QueryGraph g = MakeGoldenShape(*catalog, "linear", kNumTables);
  InterestingOrders interesting(g);
  CardinalityModel card(g, /*use_key_refinement=*/false);

  EnumeratorOptions opt;
  opt.max_composite_inner = 64;  // full bushy search space
  PlanCounter counter(g, interesting, card, PlanGenOptions{});
  JoinEnumerator enumerator(g, opt);

  enumerator.Run(&counter);
  testing::AllocationCounter alloc;
  enumerator.Run(&counter);
  EXPECT_EQ(alloc.delta(), 0)
      << "full-bushy estimate-mode steady state performed heap allocations";
}

// The lexer allocates its copy of the input and its token vector, sized
// once from the input length, and nothing per token: not for identifiers
// longer than a small string, not for literals with escaped quotes, and
// not for the vector to regrow.
TEST(LexerAllocTest, TokenizeAllocatesOnlyItsBufferAndTokenVector) {
  for (int predicates : {1, 10, 100}) {
    SCOPED_TRACE(predicates);
    std::string sql =
        "SELECT customer_segment_name, COUNT(*) FROM customer_dimension c, "
        "sales_fact_table s WHERE c.customer_identifier = s.customer_id";
    for (int p = 0; p < predicates; ++p) {
      sql += " AND s.quantity_sold_in_store_" + std::to_string(p) +
             " BETWEEN .5 AND 100 AND c.customer_city_name <> 'O''Brien''s'";
    }
    sql += " ORDER BY customer_segment_name FETCH FIRST 10 ROWS ONLY";
    testing::AllocationCounter alloc;
    auto tokens = Lexer(sql).Tokenize();
    const int64_t allocations = alloc.delta();
    ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
    EXPECT_GT(tokens->size(), 10u * static_cast<size_t>(predicates));
    EXPECT_LE(allocations, 2) << tokens->size() << " tokens";
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HotpathAllocTest,
                         ::testing::Values("linear", "star", "random"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace cote

// Equivalence guard for the enumeration fast path.
//
// The rewritten enumeration substrate (bitmap adjacency in QueryGraph,
// Gosper-iteration + flat existence bitmap in JoinEnumerator, flat MEMO)
// must be *behaviorally invisible*: identical EnumerationStats and
// identical per-join-method plan counts from the counting visitor, on
// every graph shape. The golden values below were recorded from the
// pre-rewrite enumerator (the original O(n·2^n) skip-scan over an
// unordered_set, with linear predicate scans); any divergence means the
// fast path changed enumeration semantics, which also breaks the paper's
// core invariant that estimate mode and optimize mode traverse identical
// join sequences (§3.1).
//
// Regenerate goldens (e.g. after an *intentional* semantic change) with:
//   COTE_PRINT_GOLDENS=1 ./optimizer_test
//       --gtest_filter='EnumGoldenEquivalence*' 2>/dev/null

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "core/plan_counter.h"
#include "optimizer/cost/cardinality.h"
#include "optimizer/enumerator.h"
#include "optimizer/properties/interesting_orders.h"
#include "query/query_builder.h"
#include "tests/common/golden_shapes.h"

namespace cote {
namespace {

class EnumGoldenEquivalenceTest
    : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(EnumGoldenEquivalenceTest, MatchesPreRewriteGoldens) {
  const GoldenCase& gc = GetParam();
  auto catalog = MakeGoldenCatalog(gc.n);
  QueryGraph g = MakeGoldenShape(*catalog, gc.shape, gc.n);

  EnumeratorOptions opt;
  opt.max_composite_inner = gc.max_composite_inner;

  InterestingOrders interesting(g);
  CardinalityModel card(g, /*use_key_refinement=*/false);
  PlanCounter counter(g, interesting, card, PlanGenOptions{});
  JoinEnumerator enumerator(g, opt);
  EnumerationStats stats = enumerator.Run(&counter);

  if (std::getenv("COTE_PRINT_GOLDENS") != nullptr) {
    std::printf(
        "    {\"%s\", %d, %d, %lld, %lld, %lld, %lld, %lld, %lld},\n",
        gc.shape, gc.n, gc.max_composite_inner,
        static_cast<long long>(stats.entries_created),
        static_cast<long long>(stats.joins_unordered),
        static_cast<long long>(stats.joins_ordered),
        static_cast<long long>(counter.estimated_plans().nljn()),
        static_cast<long long>(counter.estimated_plans().mgjn()),
        static_cast<long long>(counter.estimated_plans().hsjn()));
    return;
  }

  EXPECT_EQ(stats.entries_created, gc.entries_created);
  EXPECT_EQ(stats.joins_unordered, gc.joins_unordered);
  EXPECT_EQ(stats.joins_ordered, gc.joins_ordered);
  EXPECT_EQ(counter.estimated_plans().nljn(), gc.nljn);
  EXPECT_EQ(counter.estimated_plans().mgjn(), gc.mgjn);
  EXPECT_EQ(counter.estimated_plans().hsjn(), gc.hsjn);

  // The top-down search order must enumerate the identical join set
  // (paper §3.1 / §6.2): same unordered and ordered counts, same entries.
  EnumeratorOptions td = opt;
  td.kind = EnumeratorKind::kTopDown;
  PlanCounter td_counter(g, interesting, card, PlanGenOptions{});
  EnumerationStats td_stats = RunEnumeration(g, td, &td_counter);
  EXPECT_EQ(td_stats.entries_created, gc.entries_created);
  EXPECT_EQ(td_stats.joins_unordered, gc.joins_unordered);
  EXPECT_EQ(td_stats.joins_ordered, gc.joins_ordered);
}

INSTANTIATE_TEST_SUITE_P(Goldens, EnumGoldenEquivalenceTest,
                         ::testing::ValuesIn(kGoldens), GoldenCaseName);

}  // namespace
}  // namespace cote

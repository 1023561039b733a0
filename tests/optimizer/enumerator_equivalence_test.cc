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

struct GoldenCase {
  const char* shape;
  int n;
  int max_composite_inner;  // 2 = the paper's DP limit, 64 = full bushy
  // EnumerationStats
  int64_t entries_created;
  int64_t joins_unordered;
  int64_t joins_ordered;
  // Per-join-method estimated plan counts from the counting visitor.
  int64_t nljn;
  int64_t mgjn;
  int64_t hsjn;
};

// Golden values recorded from the pre-rewrite enumerator (seed commit).
const GoldenCase kGoldens[] = {
    // shape, n, limit, entries, unordered, ordered, nljn, mgjn, hsjn
    {"linear", 4, 2, 10, 10, 18, 58, 18, 18},
    {"linear", 8, 2, 36, 74, 98, 310, 98, 98},
    {"linear", 12, 2, 78, 202, 242, 754, 242, 242},
    {"linear", 14, 2, 105, 290, 338, 1048, 338, 338},
    {"linear", 10, 64, 55, 165, 330, 1026, 330, 330},
    {"star", 4, 2, 11, 12, 21, 65, 21, 21},
    {"star", 8, 2, 135, 448, 497, 1977, 497, 497},
    {"star", 12, 2, 2059, 11264, 11385, 48957, 11385, 11385},
    {"star", 14, 2, 8205, 53248, 53417, 234591, 53417, 53417},
    {"star", 10, 64, 521, 2304, 4608, 14720, 4608, 4608},
    {"cyclic", 5, 2, 21, 40, 60, 218, 70, 60},
    {"cyclic", 8, 2, 93, 351, 400, 1786, 501, 400},
    {"cyclic", 10, 2, 191, 857, 914, 4654, 1116, 914},
    {"cyclic", 8, 64, 93, 400, 800, 3168, 1074, 800},
    {"random", 8, 2, 90, 331, 386, 2128, 666, 386},
    {"random", 12, 2, 838, 5337, 5465, 32167, 8212, 5465},
    {"random", 14, 2, 3102, 24688, 24905, 174695, 41425, 24905},
    {"random", 10, 64, 345, 2592, 5184, 26700, 9818, 5184},
};

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

INSTANTIATE_TEST_SUITE_P(
    Goldens, EnumGoldenEquivalenceTest, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.shape) + "_n" +
             std::to_string(info.param.n) + "_ci" +
             std::to_string(info.param.max_composite_inner);
    });

}  // namespace
}  // namespace cote

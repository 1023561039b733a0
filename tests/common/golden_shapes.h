#ifndef COTE_TESTS_COMMON_GOLDEN_SHAPES_H_
#define COTE_TESTS_COMMON_GOLDEN_SHAPES_H_

/// \file
/// The enumeration goldens (tests/optimizer/enumerator_equivalence_test.cc
/// and parallel_equivalence_test.cc): their 18 rows, their test names, and
/// the join graphs whose outputs the rows pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "query/query_builder.h"

namespace cote {

/// Tables T0..T{n-1}, each with integer columns a, b, c.
inline std::shared_ptr<Catalog> MakeGoldenCatalog(int n) {
  auto catalog = std::make_shared<Catalog>();
  for (int i = 0; i < n; ++i) {
    TableBuilder b("T" + std::to_string(i), 1000 + 37 * i);
    b.Col("a", ColumnType::kInt, 100)
        .Col("b", ColumnType::kInt, 50)
        .Col("c", ColumnType::kInt, 25);
    EXPECT_TRUE(catalog->AddTable(b.Build()).ok());
  }
  return catalog;
}

/// Builds the graph for one golden case over MakeGoldenCatalog(n). Shapes:
///  linear: t0-t1-...-t{n-1}
///  star:   t0 as hub
///  cyclic: chain closed into a ring, chord for n >= 7
///  random: seeded spanning tree + chords (deterministic per n)
inline QueryGraph MakeGoldenShape(const Catalog& catalog,
                                  const std::string& shape, int n) {
  QueryBuilder qb(catalog);
  for (int i = 0; i < n; ++i) {
    qb.AddTable("T" + std::to_string(i), "t" + std::to_string(i));
  }
  const char* cols[] = {"a", "b", "c"};
  auto edge = [&](int x, int y, int e) {
    qb.Join("t" + std::to_string(x), cols[e % 3], "t" + std::to_string(y),
            cols[e % 3]);
  };
  if (shape == "linear") {
    for (int i = 0; i + 1 < n; ++i) edge(i, i + 1, i);
  } else if (shape == "star") {
    for (int i = 1; i < n; ++i) edge(0, i, i - 1);
  } else if (shape == "cyclic") {
    for (int i = 0; i < n; ++i) edge(i, (i + 1) % n, i);
    if (n >= 7) edge(0, n / 2, 1);
  } else {  // random
    Rng rng(0xc0feULL + static_cast<uint64_t>(n));
    for (int i = 1; i < n; ++i) {
      edge(static_cast<int>(rng.Uniform(static_cast<uint64_t>(i))), i, i);
    }
    for (int extra = 0; extra < n / 2; ++extra) {
      int a = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      int b = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      if (a != b) edge(std::min(a, b), std::max(a, b), extra);
    }
  }
  // Interesting orders so the plan counter exercises propagation.
  qb.OrderBy({{"t0", "b"}});
  qb.GroupBy({{"t1", "c"}});
  auto g = qb.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

struct GoldenCase {
  // Held inline, not as a pointer: gtest names each golden test after the
  // bytes of its row, and a pointer's bytes are an address that differs
  // from build to build, while these are the same on every build.
  char shape[8];
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
inline constexpr GoldenCase kGoldens[] = {
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

/// The ctest name of a golden row: shape, table count and inner limit.
inline std::string GoldenCaseName(
    const ::testing::TestParamInfo<GoldenCase>& info) {
  return std::string(info.param.shape) + "_n" +
         std::to_string(info.param.n) + "_ci" +
         std::to_string(info.param.max_composite_inner);
}

}  // namespace cote

#endif  // COTE_TESTS_COMMON_GOLDEN_SHAPES_H_

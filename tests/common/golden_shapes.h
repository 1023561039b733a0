#ifndef COTE_TESTS_COMMON_GOLDEN_SHAPES_H_
#define COTE_TESTS_COMMON_GOLDEN_SHAPES_H_

/// \file
/// The join graphs of the enumeration goldens
/// (tests/optimizer/enumerator_equivalence_test.cc), shared by every test
/// that must run on exactly the graphs whose outputs are pinned there.

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

}  // namespace cote

#endif  // COTE_TESTS_COMMON_GOLDEN_SHAPES_H_

#include "graph_gen.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "common/str_util.h"
#include "query/query_builder.h"

namespace perfbench {

namespace {

using cote::Rng;
using cote::StrFormat;

struct Cell {
  const char* shape;
  int tables;
};

/// The mix, sized so one op (estimate + compile on nproc enumeration
/// workers) stays under about a second.
/// Nine cells of five graphs: the median (rank 23 of 45) and the p75 tail
/// (rank 34) fall inside a cell, not on the edge between two.
constexpr Cell kCells[] = {
    {"chain", 14}, {"chain", 16}, {"chain", 18},  {"cycle", 13}, {"cycle", 15},
    {"random", 12}, {"star", 10}, {"star", 11}, {"star", 12},
};
constexpr int kVariants = 5;
/// Seeds every graph of the pool; never the run seed.
constexpr uint64_t kCorpusSeed = 0xb16;

constexpr const char* kJoinCols[] = {"c0", "c1", "c2", "c3", "c4"};
constexpr const char* kPropertyCols[] = {"c5", "c6", "c7"};

}  // namespace

std::vector<GraphSpec> BigJoinPool(uint64_t seed) {
  std::vector<GraphSpec> pool;
  Rng graphs(kCorpusSeed);
  for (int v = 0; v < kVariants; ++v) {
    for (const Cell& c : kCells) {
      pool.push_back({c.shape, c.tables, v, graphs.Next()});
    }
  }
  Rng order(seed ^ 0xb16b01ULL);
  order.Shuffle(&pool);
  return pool;
}

std::string GraphSpec::Name() const {
  return StrFormat("%s%d.%d", shape.c_str(), tables, variant);
}

cote::StatusOr<cote::QueryGraph> BuildGraph(const cote::Catalog& catalog,
                                            const GraphSpec& spec) {
  Rng rng(spec.seed);
  const int n = spec.tables;
  std::vector<int> pick(kMaxGraphTables);
  for (int i = 0; i < kMaxGraphTables; ++i) pick[i] = i;
  rng.Shuffle(&pick);

  cote::QueryBuilder qb(catalog);
  for (int t = 0; t < n; ++t) {
    qb.AddTable(StrFormat("T%d", pick[t]), StrFormat("t%d", t));
  }
  const auto edge = [&](int a, int b) {
    const char* col = kJoinCols[rng.Uniform(5)];
    qb.Join(StrFormat("t%d", a), col, StrFormat("t%d", b), col);
  };
  if (spec.shape == "chain" || spec.shape == "cycle") {
    for (int t = 0; t + 1 < n; ++t) edge(t, t + 1);
    if (spec.shape == "cycle") edge(n - 1, 0);
  } else if (spec.shape == "star") {
    for (int t = 1; t < n; ++t) edge(0, t);
  } else {  // random: spanning tree plus n/3 chords
    std::vector<std::pair<int, int>> edges;
    for (int t = 1; t < n; ++t) {
      edges.emplace_back(static_cast<int>(rng.Uniform(static_cast<uint64_t>(t))), t);
    }
    for (int extra = 0; extra < n / 3; ++extra) {
      const int a = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      const int b = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      const auto e = std::minmax(a, b);
      if (a != b && std::find(edges.begin(), edges.end(),
                              std::make_pair(e.first, e.second)) == edges.end()) {
        edges.emplace_back(e.first, e.second);
      }
    }
    for (const auto& [a, b] : edges) edge(a, b);
  }
  const auto property_columns = [&](int count) {
    std::vector<std::pair<std::string, std::string>> cols;
    for (int i = 0; i < count; ++i) {
      std::pair<std::string, std::string> c(
          StrFormat("t%d", static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)))),
          kPropertyCols[rng.Uniform(3)]);
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) cols.push_back(c);
    }
    return cols;
  };
  qb.OrderBy(property_columns(1 + static_cast<int>(rng.Uniform(2))));
  qb.GroupBy(property_columns(1 + static_cast<int>(rng.Uniform(2))));
  return qb.Build();
}

}  // namespace perfbench

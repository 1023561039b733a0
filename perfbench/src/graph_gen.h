#ifndef PERFBENCH_GRAPH_GEN_H_
#define PERFBENCH_GRAPH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "query/query_graph.h"

namespace perfbench {

/// One big-join input: a join graph of `tables` tables of the synthetic
/// catalog in one of four shapes, with ORDER BY / GROUP BY pressure.
struct GraphSpec {
  std::string shape;  ///< "chain", "cycle", "random" or "star"
  int tables = 0;
  int variant = 0;  ///< which of the cell's graphs
  /// Picks the tables, join columns and ORDER BY / GROUP BY columns.
  uint64_t seed = 0;

  /// "star12.3": shape, tables and variant.
  std::string Name() const;
};

/// Tables the synthetic catalog must hold for every GraphSpec.
constexpr int kMaxGraphTables = 18;

/// The big-join op pool: five graphs of each of nine (shape, size) cells.
/// The graphs are fixed; `seed` picks only their order. (Which tables
/// fill a shape moves a graph's compile time, so a seeded choice would
/// move the percentiles with the seed rather than with the program.)
std::vector<GraphSpec> BigJoinPool(uint64_t seed);

/// Builds a fresh graph for `spec`, the way enum_throughput's MakeQuery
/// does: shape edges over c0..c4, and a few ORDER BY / GROUP BY columns.
cote::StatusOr<cote::QueryGraph> BuildGraph(const cote::Catalog& catalog,
                                            const GraphSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_GRAPH_GEN_H_

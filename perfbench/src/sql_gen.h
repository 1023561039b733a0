#ifndef PERFBENCH_SQL_GEN_H_
#define PERFBENCH_SQL_GEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"

namespace perfbench {

/// The two schemas the statement stream binds against: the retail
/// warehouse behind the paper's real1/real2 workloads, and TPC-H.
struct SqlCatalogs {
  std::shared_ptr<cote::Catalog> retail;
  std::shared_ptr<cote::Catalog> tpch;

  static SqlCatalogs Make();
  const cote::Catalog& Get(int which) const {
    return which == 0 ? *retail : *tpch;
  }
};

/// One generated SQL statement.
struct Statement {
  std::string sql;
  int catalog = 0;  ///< 0 = retail, 1 = TPC-H (SqlCatalogs::Get)
  int tables = 0;
  /// sql-stream plans this statement for the 4-node environment.
  bool parallel = false;
};

/// Statements of the corpus both SQL workloads draw from.
constexpr int kCorpusSize = 249;

/// Statement `index` of the corpus. The corpus is fixed: the run seed
/// picks only the order a run visits it in (StreamOrder). Statements come
/// in blocks of 20 that share one mix: table counts 1-8 (weighted toward
/// 3-5), 6 TPC-H and 14 retail statements, and 5 planned for the 4-node
/// environment; within a block, join edges, outer joins, extra cycle
/// edges, filters and GROUP BY / ORDER BY widths vary. Filter constants
/// change how many plans some statements generate (up to 2x), so letting
/// the seed pick them would move the tail with the seed rather than with
/// the program. Indices past the corpus give more statements of the same
/// mix, for warm-up.
Statement MakeStatement(int index, const SqlCatalogs& catalogs);

/// The order in which a run of `seed` visits `count` corpus templates.
std::vector<int> StreamOrder(uint64_t seed, int count);

}  // namespace perfbench

#endif  // PERFBENCH_SQL_GEN_H_

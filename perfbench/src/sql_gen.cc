#include "sql_gen.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

using cote::ColumnType;
using cote::Rng;
using cote::StrFormat;
using cote::Table;

/// A join edge between two tables of one schema: the FK-PK and
/// dimension links the hand-written real1/real2 and TPC-H statements use.
struct Edge {
  const char* t1;
  const char* c1;
  const char* t2;  ///< referenced (key) side
  const char* c2;
};

constexpr Edge kRetailEdges[] = {
    {"sales", "sl_store_id", "store", "s_id"},
    {"sales", "sl_product_id", "product", "p_id"},
    {"sales", "sl_customer_id", "customer", "c_id"},
    {"sales", "sl_date", "calendar", "d_date"},
    {"sales", "sl_promo_id", "promotion", "pr_id"},
    {"inventory", "inv_warehouse_id", "warehouse", "w_id"},
    {"inventory", "inv_product_id", "product", "p_id"},
    {"inventory", "inv_date", "calendar", "d_date"},
    {"shipments", "sh_warehouse_id", "warehouse", "w_id"},
    {"shipments", "sh_store_id", "store", "s_id"},
    {"shipments", "sh_product_id", "product", "p_id"},
    {"shipments", "sh_date", "calendar", "d_date"},
    {"returns", "rt_sale_id", "sales", "sl_id"},
    {"returns", "rt_product_id", "product", "p_id"},
    {"returns", "rt_customer_id", "customer", "c_id"},
    {"returns", "rt_date", "calendar", "d_date"},
    {"promotion", "pr_product_id", "product", "p_id"},
    {"store", "s_region_id", "region", "r_id"},
    {"customer", "c_region_id", "region", "r_id"},
    {"vendor", "v_region_id", "region", "r_id"},
    {"warehouse", "w_region_id", "region", "r_id"},
    {"product", "p_category_id", "category", "cat_id"},
    {"product", "p_brand_id", "brand", "b_id"},
    {"brand", "b_vendor_id", "vendor", "v_id"},
};

constexpr Edge kTpchEdges[] = {
    {"nation", "n_regionkey", "region", "r_regionkey"},
    {"supplier", "s_nationkey", "nation", "n_nationkey"},
    {"customer", "c_nationkey", "nation", "n_nationkey"},
    {"partsupp", "ps_partkey", "part", "p_partkey"},
    {"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
    {"orders", "o_custkey", "customer", "c_custkey"},
    {"lineitem", "l_orderkey", "orders", "o_orderkey"},
    {"lineitem", "l_partkey", "part", "p_partkey"},
    {"lineitem", "l_suppkey", "supplier", "s_suppkey"},
    {"lineitem", "l_partkey", "partsupp", "ps_partkey"},
};

constexpr const char* kRetailFacts[] = {"sales", "inventory", "shipments",
                                        "returns"};
constexpr const char* kTpchFacts[] = {"lineitem", "orders", "partsupp"};

/// The per-block mix (20 statements): table counts, 6 TPC-H slots and 5
/// slots planned for the 4-node environment.
constexpr int kBlock = 20;
constexpr int kBlockTables[kBlock] = {1, 1, 2, 2, 2, 3, 3, 3, 3, 4,
                                      4, 4, 4, 5, 5, 5, 6, 6, 7, 8};
constexpr int kTpchPerBlock = 6;
constexpr int kParallelPerBlock = 5;

/// Seeds every template of the corpus; never the run seed.
constexpr uint64_t kCorpusSeed = 0x5eed;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<int> Permutation(uint64_t seed) {
  std::vector<int> p(kBlock);
  for (int i = 0; i < kBlock; ++i) p[i] = i;
  Rng rng(seed);
  rng.Shuffle(&p);
  return p;
}

struct Ref {
  const Table* table;
  std::string alias;
  bool outer = false;  ///< null-producing side of a LEFT JOIN on ref 0
};

std::string Literal(Rng& rng, const std::string& col, ColumnType type) {
  const int year = 1995 + static_cast<int>(rng.Uniform(8));
  switch (type) {
    case ColumnType::kVarchar:
      return rng.Bernoulli(0.5)
                 ? StrFormat("%s = 'v%d'", col.c_str(),
                             static_cast<int>(rng.Uniform(50)))
                 : StrFormat("%s LIKE '%c%%'", col.c_str(),
                             'A' + static_cast<char>(rng.Uniform(26)));
    case ColumnType::kDate:
      return rng.Bernoulli(0.5)
                 ? StrFormat("%s >= DATE '%d-01-01'", col.c_str(), year)
                 : StrFormat("%s BETWEEN DATE '%d-01-01' AND DATE '%d-06-30'",
                             col.c_str(), year, year + 1);
    default: {
      const int v = 1 + static_cast<int>(rng.Uniform(500));
      switch (rng.Uniform(4)) {
        case 0:
          return StrFormat("%s = %d", col.c_str(), v);
        case 1:
          return StrFormat("%s < %d", col.c_str(), v);
        case 2:
          return StrFormat("%s > %d", col.c_str(), v);
        default:
          return StrFormat("%s BETWEEN %d AND %d", col.c_str(), v, v * 3);
      }
    }
  }
}

std::string Column(const Ref& r, int ordinal) {
  return r.alias + "." + r.table->column(ordinal).name;
}

}  // namespace

SqlCatalogs SqlCatalogs::Make() {
  return SqlCatalogs{cote::MakeRetailCatalog(), cote::MakeTpchCatalog()};
}

Statement MakeStatement(int index, const SqlCatalogs& catalogs) {
  const uint64_t block = static_cast<uint64_t>(index / kBlock);
  const int pos = index % kBlock;
  Statement st;
  const int target = kBlockTables[Permutation(Mix(kCorpusSeed, block * 3))[pos]];
  st.catalog = Permutation(Mix(kCorpusSeed, block * 3 + 1))[pos] < kTpchPerBlock;
  st.parallel =
      Permutation(Mix(kCorpusSeed, block * 3 + 2))[pos] < kParallelPerBlock;

  Rng rng(Mix(Mix(kCorpusSeed, 0x5417), static_cast<uint64_t>(index)));
  const cote::Catalog& catalog = catalogs.Get(st.catalog);
  std::vector<Edge> edges;
  std::vector<const char*> facts;
  if (st.catalog == 0) {
    edges.assign(std::begin(kRetailEdges), std::end(kRetailEdges));
    facts.assign(std::begin(kRetailFacts), std::end(kRetailFacts));
  } else {
    edges.assign(std::begin(kTpchEdges), std::end(kTpchEdges));
    facts.assign(std::begin(kTpchFacts), std::end(kTpchFacts));
  }

  std::vector<Ref> refs;
  refs.push_back(Ref{catalog.FindTable(rng.Pick(facts)), "a0"});
  std::vector<std::string> joins;      // WHERE-clause join predicates
  std::vector<std::string> outer_on;   // LEFT JOIN clauses on ref 0
  std::vector<std::pair<size_t, size_t>> linked;
  // Grow the graph one edge at a time from a random inner ref; a table
  // may appear twice under another alias (as region does in R1.5).
  for (int guard = 0; static_cast<int>(refs.size()) < target && guard < 64;
       ++guard) {
    const size_t a = rng.Uniform(refs.size());
    if (refs[a].outer) continue;
    std::vector<const Edge*> touching;
    for (const Edge& e : edges) {
      if (refs[a].table->name() == e.t1 || refs[a].table->name() == e.t2) {
        touching.push_back(&e);
      }
    }
    const Edge& e = *rng.Pick(touching);
    const bool forward = refs[a].table->name() == e.t1;
    const char* other = forward ? e.t2 : e.t1;
    const bool present = std::any_of(refs.begin(), refs.end(), [&](const Ref& r) {
      return r.table->name() == other;
    });
    if (present && !rng.Bernoulli(0.15)) continue;
    Ref r{catalog.FindTable(other), StrFormat("a%zu", refs.size())};
    const std::string pred =
        StrFormat("%s.%s = %s.%s", refs[a].alias.c_str(), forward ? e.c1 : e.c2,
                  r.alias.c_str(), forward ? e.c2 : e.c1);
    r.outer = a == 0 && forward && target >= 3 && rng.Bernoulli(0.2);
    (r.outer ? outer_on : joins)
        .push_back(r.outer ? StrFormat("LEFT JOIN %s %s ON %s",
                                       other, r.alias.c_str(), pred.c_str())
                           : pred);
    linked.emplace_back(a, refs.size());
    refs.push_back(std::move(r));
  }
  st.tables = static_cast<int>(refs.size());

  // An extra edge between two refs already in the graph closes a cycle
  // (on top of the ones the binder's transitive closure derives).
  const auto add_cycle_edge = [&]() {
    for (size_t a = 0; a < refs.size(); ++a) {
      for (size_t b = a + 1; b < refs.size(); ++b) {
        if (refs[a].outer || refs[b].outer ||
            std::count(linked.begin(), linked.end(), std::make_pair(a, b))) {
          continue;
        }
        for (const Edge& e : edges) {
          const bool fwd = refs[a].table->name() == e.t1 &&
                           refs[b].table->name() == e.t2;
          const bool rev = refs[a].table->name() == e.t2 &&
                           refs[b].table->name() == e.t1;
          if (fwd || rev) {
            joins.push_back(StrFormat("%s.%s = %s.%s", refs[a].alias.c_str(),
                                      fwd ? e.c1 : e.c2, refs[b].alias.c_str(),
                                      fwd ? e.c2 : e.c1));
            return;
          }
        }
      }
    }
  };
  if (refs.size() >= 3 && rng.Bernoulli(0.3)) add_cycle_edge();

  std::vector<size_t> inner;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (!refs[i].outer) inner.push_back(i);
  }
  std::vector<std::string> filters;
  const int num_filters =
      static_cast<int>(rng.Uniform(static_cast<uint64_t>(std::min(target, 4) + 1)));
  for (int i = 0; i < num_filters; ++i) {
    const Ref& r = refs[rng.Pick(inner)];
    const int col = static_cast<int>(rng.Uniform(
        static_cast<uint64_t>(r.table->num_columns())));
    filters.push_back(
        Literal(rng, Column(r, col), r.table->column(col).type));
  }

  // GROUP BY width 0-4 and ORDER BY width 0-3; grouped statements order
  // by a prefix of their grouping columns.
  const auto random_columns = [&](int n) {
    std::vector<std::string> cols;
    for (int guard = 0; static_cast<int>(cols.size()) < n && guard < 32;
         ++guard) {
      const Ref& r = refs[rng.Uniform(refs.size())];
      std::string c = Column(r, static_cast<int>(rng.Uniform(
                                    static_cast<uint64_t>(r.table->num_columns()))));
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(std::move(c));
      }
    }
    return cols;
  };
  constexpr int kGroupWidths[] = {0, 0, 0, 1, 1, 1, 2, 2, 3, 4};
  constexpr int kOrderWidths[] = {0, 0, 0, 0, 1, 1, 1, 2, 2, 3};
  const std::vector<std::string> group = random_columns(kGroupWidths[rng.Uniform(10)]);
  std::vector<std::string> order;
  if (!group.empty()) {
    order.assign(group.begin(),
                 group.begin() + static_cast<long>(rng.Uniform(
                                     std::min<size_t>(group.size(), 3) + 1)));
  } else {
    order = random_columns(kOrderWidths[rng.Uniform(10)]);
  }

  std::vector<std::string> select = group.empty() ? order : group;
  if (!group.empty()) select.push_back("COUNT(*)");
  if (select.empty()) select.push_back("*");

  const auto join = [](const std::vector<std::string>& items, const char* sep) {
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += sep;
      out += items[i];
    }
    return out;
  };
  st.sql = "SELECT " + join(select, ", ") + " FROM " +
           refs[0].table->name() + " " + refs[0].alias;
  for (const std::string& clause : outer_on) st.sql += " " + clause;
  for (size_t i = 1; i < refs.size(); ++i) {
    if (!refs[i].outer) st.sql += ", " + refs[i].table->name() + " " + refs[i].alias;
  }
  std::vector<std::string> where = joins;
  where.insert(where.end(), filters.begin(), filters.end());
  if (!where.empty()) st.sql += " WHERE " + join(where, " AND ");
  if (!group.empty()) st.sql += " GROUP BY " + join(group, ", ");
  if (!order.empty()) st.sql += " ORDER BY " + join(order, ", ");
  return st;
}

std::vector<int> StreamOrder(uint64_t seed, int count) {
  std::vector<int> order(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) order[static_cast<size_t>(i)] = i;
  Rng rng(Mix(seed, 0x04de));
  rng.Shuffle(&order);
  return order;
}

}  // namespace perfbench

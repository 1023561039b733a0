#include "refs.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace perfbench {

OpRef MakeRef(const cote::CompileTimeEstimate& estimate,
              const cote::OptimizeResult& result) {
  OpRef r;
  r.est_joins = estimate.enumeration.joins_ordered;
  r.est_entries = estimate.enumeration.entries_created;
  r.opt_joins = result.stats.enumeration.joins_ordered;
  r.opt_entries = result.stats.enumeration.entries_created;
  for (int m = 0; m < 3; ++m) {
    r.est_plans[m] = estimate.plan_estimates.counts[m];
    r.gen_plans[m] = result.stats.join_plans_generated.counts[m];
  }
  r.best_cost = result.stats.best_cost;
  return r;
}

std::string CompareRef(const OpRef& expected, const OpRef& actual) {
  const auto diff = [](const char* field, int64_t want, int64_t got) {
    return want == got ? std::string()
                       : cote::StrFormat("%s: want %" PRId64 ", got %" PRId64,
                                         field, want, got);
  };
  static const char* kMethods[] = {"nljn", "mgjn", "hsjn"};
  std::string d = diff("est_joins", expected.est_joins, actual.est_joins);
  if (d.empty()) d = diff("est_entries", expected.est_entries, actual.est_entries);
  if (d.empty()) d = diff("opt_joins", expected.opt_joins, actual.opt_joins);
  if (d.empty()) d = diff("opt_entries", expected.opt_entries, actual.opt_entries);
  for (int m = 0; m < 3 && d.empty(); ++m) {
    d = diff((std::string("est_plans.") + kMethods[m]).c_str(),
             expected.est_plans[m], actual.est_plans[m]);
    if (d.empty()) {
      d = diff((std::string("gen_plans.") + kMethods[m]).c_str(),
               expected.gen_plans[m], actual.gen_plans[m]);
    }
  }
  if (d.empty() && !(std::fabs(expected.best_cost - actual.best_cost) <=
                     1e-9 * std::fabs(expected.best_cost))) {
    d = cote::StrFormat("best_cost: want %.17g, got %.17g", expected.best_cost,
                        actual.best_cost);
  }
  return d;
}

bool RefTable::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  refs_.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    OpRef r;
    fields >> key >> r.est_joins >> r.est_entries >> r.est_plans[0] >>
        r.est_plans[1] >> r.est_plans[2] >> r.opt_joins >> r.opt_entries >>
        r.gen_plans[0] >> r.gen_plans[1] >> r.gen_plans[2] >> r.best_cost;
    if (!fields) return false;
    refs_[key] = r;
  }
  return true;
}

bool RefTable::Save(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s", header.c_str());
  for (const auto& [key, r] : refs_) {
    std::fprintf(f,
                 "%s %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                 " %.17g\n",
                 key.c_str(), r.est_joins, r.est_entries, r.est_plans[0],
                 r.est_plans[1], r.est_plans[2], r.opt_joins, r.opt_entries,
                 r.gen_plans[0], r.gen_plans[1], r.gen_plans[2], r.best_cost);
  }
  return std::fclose(f) == 0;
}

const OpRef* RefTable::Find(const std::string& key) const {
  auto it = refs_.find(key);
  return it == refs_.end() ? nullptr : &it->second;
}

void RefTable::Perturb(const std::string& prefix) {
  auto it = refs_.lower_bound(prefix);
  if (it != refs_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it->second.est_plans[0] += 1;
  }
}

}  // namespace perfbench

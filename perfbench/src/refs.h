#ifndef PERFBENCH_REFS_H_
#define PERFBENCH_REFS_H_

#include <cstdint>
#include <map>
#include <string>

#include "optimizer/optimizer.h"
#include "session/compilation_stats.h"

namespace perfbench {

/// What one op must reproduce: the estimate's enumeration counts and
/// per-method plan estimates, the compile's enumeration counts and
/// per-method plans generated, and the chosen plan's cost.
struct OpRef {
  int64_t est_joins = 0;
  int64_t est_entries = 0;
  int64_t est_plans[3] = {0, 0, 0};  ///< NLJN, MGJN, HSJN
  int64_t opt_joins = 0;
  int64_t opt_entries = 0;
  int64_t gen_plans[3] = {0, 0, 0};
  double best_cost = 0;
};

OpRef MakeRef(const cote::CompileTimeEstimate& estimate,
              const cote::OptimizeResult& result);

/// Empty when `actual` matches `expected` (costs to a relative 1e-9),
/// otherwise the first differing field with both values.
std::string CompareRef(const OpRef& expected, const OpRef& actual);

/// References of one (input family, seed), recorded at a known-good
/// commit. A text file of "<key> <13 numbers>" lines; '#' starts a comment.
class RefTable {
 public:
  /// False when the file is missing or malformed.
  bool Load(const std::string& path);
  bool Save(const std::string& path, const std::string& header) const;

  const OpRef* Find(const std::string& key) const;
  void Put(const std::string& key, const OpRef& ref) { refs_[key] = ref; }
  size_t size() const { return refs_.size(); }

  /// Changes one recorded value of the first key (in key order) that
  /// starts with `prefix`, so that the op it belongs to must fail its
  /// check: the proof that the check can fire.
  void Perturb(const std::string& prefix);

 private:
  std::map<std::string, OpRef> refs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFS_H_

#include "optimizer/enumerator.h"

#include <unordered_set>

#include "common/check.h"
#include "common/flat_set_index.h"
#include "optimizer/dp_step.h"
#include "optimizer/topdown_enumerator.h"

namespace cote {

namespace {

/// The bottom-up mask iteration, parameterized over the subset-existence
/// set so the flat case runs on a bitmap (a lookup is one byte load)
/// without a branch in the inner loop. Masks of each size are visited in
/// ascending numeric order — Gosper's hack produces exactly that
/// sequence, touching C(n,k) masks instead of filtering all 2^n by
/// popcount; each mask's splits are dp_step.h's JoinMask. Total work
/// stays O(3^n) split pairs.
template <typename ExistsFn, typename InsertFn>
void RunBottomUp(const DpRun& run, ExistsFn exists, InsertFn insert) {
  AddBaseEntries(run, insert);
  const int n = run.graph.num_tables();
  if (n == 1) return;

  const uint64_t all = TableSet::FirstN(n).bits();
  auto sides = [&exists](uint64_t sub, uint64_t rest) {
    return exists(sub) && exists(rest);
  };
  for (int size = 2; size <= n; ++size) {
    uint64_t mask = size == 64 ? ~uint64_t{0} : (uint64_t{1} << size) - 1;
    while (true) {
      // Cooperative cancellation, once per mask batch: the overshoot past
      // a tripped budget is at most one mask's worth of splits.
      if (run.budget != nullptr && run.budget->Checkpoint()) return;
      JoinMask(run, mask, sides, insert);

      // Gosper's hack: the next mask with the same popcount.
      const uint64_t low = LowestBit(mask);
      const uint64_t carry = mask + low;
      if (carry < mask || carry > all) break;  // wrapped or size exhausted
      mask = carry | (((mask ^ carry) >> 2) / low);
    }
  }
}

}  // namespace

EnumerationStats JoinEnumerator::Run(JoinVisitor* visitor,
                                     ResourceBudget* budget) {
  COTE_CHECK(visitor != nullptr);
  const int n = graph_->num_tables();
  COTE_CHECK_LE(n, 64);
  EnumerationStats stats;
  const DpRun run{*graph_, options_, visitor, budget, preds_, stats};
  if (n <= FlatSetIndex::kDenseMaxTables) {
    // assign() reuses the buffer's capacity, so from the second run on
    // (same enumerator, same-or-smaller graph) the flat path allocates
    // nothing.
    exists_.assign(size_t{1} << n, 0);
    RunBottomUp(
        run, [this](uint64_t bits) { return exists_[bits] != 0; },
        [this](uint64_t bits) { exists_[bits] = 1; });
    return stats;
  }
  // Past the dense ceiling the 2^n-byte bitmap stops being cheap; hash
  // instead. Enumeration itself is O(3^n), so such queries are outside DP
  // range anyway.
  // hotpath-ok: documented hashed fallback for n > 20, outside DP range
  std::unordered_set<uint64_t> exists;
  RunBottomUp(
      run, [&exists](uint64_t bits) { return exists.count(bits) != 0; },
      // hotpath-ok: hashed-fallback existence insert (n > 20 only)
      [&exists](uint64_t bits) { exists.insert(bits); });
  return stats;
}

EnumerationStats RunEnumeration(const QueryGraph& graph,
                                const EnumeratorOptions& options,
                                JoinVisitor* visitor, ResourceBudget* budget) {
  if (options.kind == EnumeratorKind::kTopDown) {
    TopDownEnumerator enumerator(graph, options);
    return enumerator.Run(visitor, budget);
  }
  JoinEnumerator enumerator(graph, options);
  return enumerator.Run(visitor, budget);
}

}  // namespace cote

#include "optimizer/topdown_enumerator.h"

#include "common/check.h"
#include "common/flat_set_index.h"
#include "optimizer/dp_step.h"

namespace cote {

bool TopDownEnumerator::Lookup(uint64_t bits, bool* constructible) const {
  COTE_DCHECK_NE(bits, uint64_t{0});
  if (!explored_flat_.empty()) {
    COTE_DCHECK_LT(bits, explored_flat_.size());
    if (explored_flat_[bits] == 0) return false;
    *constructible = constructible_flat_[bits] != 0;
    return true;
  }
  auto it = explored_.find(bits);
  if (it == explored_.end()) return false;
  *constructible = it->second;
  return true;
}

void TopDownEnumerator::Store(uint64_t bits, bool constructible) {
  COTE_DCHECK_NE(bits, uint64_t{0});
  if (!explored_flat_.empty()) {
    COTE_DCHECK_LT(bits, explored_flat_.size());
    explored_flat_[bits] = 1;
    constructible_flat_[bits] = constructible ? 1 : 0;
    return;
  }
  explored_[bits] = constructible;
}

EnumerationStats TopDownEnumerator::Run(JoinVisitor* visitor,
                                        ResourceBudget* budget) {
  COTE_CHECK(visitor != nullptr);
  EnumerationStats stats;
  const int n = graph_.num_tables();
  COTE_CHECK_LE(n, 64);
  explored_.clear();
  if (n <= FlatSetIndex::kDenseMaxTables) {
    explored_flat_.assign(size_t{1} << n, 0);
    constructible_flat_.assign(size_t{1} << n, 0);
  } else {
    explored_flat_.clear();
    constructible_flat_.clear();
  }

  // Base-table entries exist unconditionally (as in the bottom-up
  // enumerator, where they are created before any join).
  const DpRun run{graph_, options_, visitor, budget, preds_, stats};
  AddBaseEntries(run, [this](uint64_t bits) { Store(bits, true); });
  if (n > 1) Explore(graph_.AllTables(), run);
  return stats;
}

bool TopDownEnumerator::Explore(TableSet s, const DpRun& run) {
  // Cooperative cancellation, once per explored subset: a tripped budget
  // reports the subset as unconstructible, which unwinds the recursion
  // without emitting further joins.
  if (run.budget != nullptr && run.budget->Checkpoint()) return false;
  bool memoized;
  if (Lookup(s.bits(), &memoized)) return memoized;
  // Mark in-progress as false; splits are strictly smaller so there is no
  // true cycle, but this keeps accidental re-entry harmless.
  Store(s.bits(), false);
  COTE_DCHECK(s.size() >= 2);

  // Explore both sides of every split unconditionally (no short circuit)
  // so subset coverage matches the bottom-up enumerator even when one side
  // is not constructible; stop at the first split after a trip.
  const bool constructible = JoinMask(
      run, s.bits(),
      [&](uint64_t sub, uint64_t rest) {
        const bool sub_ok = Explore(TableSet(sub), run);
        const bool rest_ok = Explore(TableSet(rest), run);
        return sub_ok && rest_ok;
      },
      [this](uint64_t bits) { Store(bits, true); },
      [&run] { return run.budget != nullptr && run.budget->tripped(); });
  Store(s.bits(), constructible);
  return constructible;
}

}  // namespace cote

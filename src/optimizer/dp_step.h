#ifndef COTE_OPTIMIZER_DP_STEP_H_
#define COTE_OPTIMIZER_DP_STEP_H_

/// \file
/// The enumeration rules every join enumerator shares: the base-table
/// entries, the rule that turns one unordered split into joins, and the
/// per-mask split loop. The bottom-up JoinEnumerator, the rank-parallel
/// enumerator and the top-down enumerator differ only in which masks they
/// visit and in how they record that a set exists, so each passes its
/// existence check in and keeps only its own mask iteration (or
/// recursion). Which splits become joins is therefore decided here, once,
/// for all three — §3.1's requirement that estimate and plan mode see the
/// same joins holds under every search order by construction.

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/resource_budget.h"
#include "common/table_set.h"
#include "optimizer/enumerator.h"
#include "query/query_graph.h"

namespace cote {

/// Tolerance of the card-1 Cartesian rule (estimates of exactly one row
/// may come out a rounding error above 1).
inline constexpr double kCardOneEpsilon = 1e-9;

/// What one enumeration run (or one worker's share of it) threads through
/// the shared steps. `budget` is null on an ungoverned run; `preds` is the
/// caller's reusable predicate-gather buffer.
struct DpRun {
  const QueryGraph& graph;
  const EnumeratorOptions& options;
  JoinVisitor* visitor;
  ResourceBudget* budget;
  std::vector<int>& preds;
  EnumerationStats& stats;
};

/// Creates the base-table entries, which always exist. `insert(bits)`
/// records a set's existence in the caller's structure.
template <typename InsertFn>
void AddBaseEntries(const DpRun& run, InsertFn insert) {
  for (int t = 0; t < run.graph.num_tables(); ++t) {
    const TableSet s = TableSet::Single(t);
    insert(s.bits());
    run.visitor->InitializeEntry(s);
    ++run.stats.entries_created;
    if (run.budget != nullptr) run.budget->ChargeEntries(1);
  }
}

/// The rule for one unordered split {s, l} of `joined` whose two sides
/// exist. The split is a join when a predicate links the sides or a
/// Cartesian rule admits it; each orientation (outer, inner) is then
/// emitted subject to the composite-inner limit, the outer side being
/// outer-enabled, and outer-join orientation. The entry for `joined` is
/// created (and `*entry_exists` set) before its first join. Predicate
/// indices reach the visitor in ascending order, in `run.preds`.
template <typename InsertFn>
void JoinSplit(const DpRun& run, TableSet joined, TableSet s, TableSet l,
               bool* entry_exists, InsertFn insert) {
  run.graph.ConnectingPredicates(s, l, &run.preds);
  const bool cartesian = run.preds.empty();
  if (cartesian &&
      !(run.options.allow_all_cartesian ||
        (run.options.cartesian_when_card_one &&
         (run.visitor->EntryCardinality(s) <= 1.0 + kCardOneEpsilon ||
          run.visitor->EntryCardinality(l) <= 1.0 + kCardOneEpsilon)))) {
    return;
  }
  bool emitted = false;
  auto try_emit = [&](TableSet outer, TableSet inner) {
    if (inner.size() > run.options.max_composite_inner) return;
    if (!run.graph.OuterEnabled(outer)) return;
    if (!run.graph.OuterJoinOrientationOk(outer, inner)) return;
    if (!*entry_exists) {
      insert(joined.bits());
      run.visitor->InitializeEntry(joined);
      ++run.stats.entries_created;
      if (run.budget != nullptr) run.budget->ChargeEntries(1);
      *entry_exists = true;
    }
    emitted = true;
    run.visitor->OnJoin(outer, inner, run.preds, cartesian);
    ++run.stats.joins_ordered;
  };
  try_emit(s, l);
  try_emit(l, s);
  if (emitted) ++run.stats.joins_unordered;
}

/// Never stops a JoinMask early (the bottom-up enumerators poll their
/// budgets between masks instead).
struct NeverStop {
  bool operator()() const { return false; }
};

/// One mask's DP step: visits each unordered split of `mask` once, with
/// the mask's lowest table always in `sub` and `sub` descending —
/// iterating the proper submasks of mask^low (down to and including 0)
/// and OR-ing the low bit back gives the order of filtering all submasks,
/// with half the iterations. `sides(sub, rest)` says whether both sides
/// exist; the split rule runs on those that do. `stop()` is polled before
/// each split and ends the loop when it returns true. Returns whether the
/// entry for `mask` exists afterwards, i.e. whether any join was emitted.
template <typename SidesFn, typename InsertFn, typename StopFn = NeverStop>
bool JoinMask(const DpRun& run, uint64_t mask, SidesFn sides, InsertFn insert,
              StopFn stop = {}) {
  const TableSet joined(mask);
  const uint64_t low = LowestBit(mask);
  const uint64_t rest_bits = mask ^ low;
  bool entry_exists = false;
  for (uint64_t sub2 = (rest_bits - 1) & rest_bits;;
       sub2 = (sub2 - 1) & rest_bits) {
    if (stop()) break;
    const uint64_t sub = sub2 | low;
    const uint64_t rest = rest_bits ^ sub2;
    COTE_DCHECK_EQ(sub & rest, uint64_t{0});
    COTE_DCHECK_EQ(sub | rest, mask);
    if (sides(sub, rest)) {
      JoinSplit(run, joined, TableSet(sub), TableSet(rest), &entry_exists,
                insert);
    }
    if (sub2 == 0) break;
  }
  return entry_exists;
}

}  // namespace cote

#endif  // COTE_OPTIMIZER_DP_STEP_H_

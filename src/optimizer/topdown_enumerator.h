#ifndef COTE_OPTIMIZER_TOPDOWN_ENUMERATOR_H_
#define COTE_OPTIMIZER_TOPDOWN_ENUMERATOR_H_

#include <unordered_map>
#include <vector>

#include "optimizer/enumerator.h"

namespace cote {

struct DpRun;

/// \brief Memoized top-down join enumerator (Volcano/Cascades search
/// order).
///
/// §6.2 of the paper discusses transformation-based optimizers, whose
/// MEMO "is not necessarily filled bottom-up — an entry for a larger
/// logical expression might be populated before that for a smaller
/// expression". This enumerator explores splits recursively from the full
/// table set downwards, memoizing constructibility per subset — yet emits
/// exactly the same set of joins as the bottom-up JoinEnumerator (§3.1:
/// changing only the *relative order* of joins enumerated does not affect
/// compilation complexity). It drives the identical JoinVisitor interface,
/// so both the plan generator and the plan counter run unchanged on top of
/// it — demonstrating that the COTE framework carries over to top-down
/// optimizers.
///
/// Invariants shared with the bottom-up enumerator:
///  * InitializeEntry(s) fires exactly once per constructible subset,
///    before any OnJoin that mentions s;
///  * both children of an emitted join have been initialized (and, in
///    normal mode, fully planned) beforehand;
///  * the same knobs apply: composite-inner limit, Cartesian rules,
///    outer-join eligibility.
class TopDownEnumerator {
 public:
  TopDownEnumerator(const QueryGraph& graph, const EnumeratorOptions& options)
      : graph_(graph), options_(options) {}

  /// Runs the exploration from the full table set; returns the same
  /// statistics the bottom-up enumerator reports. A non-null `budget`
  /// makes the run cooperative exactly as in JoinEnumerator::Run: entries
  /// are charged as they are created and one Checkpoint() per Explore()
  /// call stops the recursion early once the budget trips.
  EnumerationStats Run(JoinVisitor* visitor, ResourceBudget* budget = nullptr);

 private:
  /// Explores subset `s`; returns whether it is constructible (a single
  /// table, or splittable into two constructible parts joined by a
  /// predicate or an admissible Cartesian product). Memoized.
  bool Explore(TableSet s, const DpRun& run);

  /// Memoization accessors backed by flat byte arrays for small queries
  /// (one load per probe) and by the hash map beyond that.
  bool Lookup(uint64_t bits, bool* constructible) const;
  void Store(uint64_t bits, bool constructible);

  const QueryGraph& graph_;
  EnumeratorOptions options_;
  /// Flat memoization for n <= 20: explored flag and constructibility per
  /// subset mask. Empty (unused) when the query is larger.
  std::vector<uint8_t> explored_flat_;
  std::vector<uint8_t> constructible_flat_;
  /// Hash fallback for very large queries; presence implies explored.
  std::unordered_map<uint64_t, bool> explored_;
  /// Scratch for connecting-predicate gathering; safe to reuse across the
  /// recursion because it is only live between the child Explore() calls
  /// of one split and that split's emissions.
  std::vector<int> preds_;
};

}  // namespace cote

#endif  // COTE_OPTIMIZER_TOPDOWN_ENUMERATOR_H_

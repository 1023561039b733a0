#ifndef COTE_QUERY_EQUIVALENCE_H_
#define COTE_QUERY_EQUIVALENCE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "query/column_ref.h"

namespace cote {

/// \brief Union-find over columns, built from applied equi-join predicates.
///
/// Join predicates make columns equivalent: after applying `R.a = S.a`, an
/// order on `R.a` and an order on `S.a` denote the same physical property.
/// The optimizer builds one instance per MEMO entry (from the predicates
/// applied within that entry's table set) and canonicalizes property columns
/// through it; the paper notes that "equivalence needs to be checked for
/// each enumerated join" (§3.3).
///
/// Storage is a flat node list — (column, parent index) pairs in insertion
/// order — searched linearly: an entry's equivalence holds a few columns
/// per applied predicate, which a scan covers faster than a hash probe.
/// The first kInlineNodes nodes live inside the object, so small instances
/// never touch the heap; larger ones spill to a vector whose capacity
/// Clear() keeps.
class ColumnEquivalence {
 public:
  ColumnEquivalence() = default;

  /// Declares a ~ b.
  void AddEquivalence(ColumnRef a, ColumnRef b);

  /// Canonical representative of c's class (the minimum-encoded member).
  /// Columns never added are their own representative.
  ColumnRef Find(ColumnRef c) const;

  bool Equivalent(ColumnRef a, ColumnRef b) const {
    return Find(a) == Find(b);
  }

  /// All classes with at least two members, each sorted ascending, in
  /// ascending order of their representatives.
  std::vector<std::vector<ColumnRef>> Classes() const;

  /// Calls fn(a, b) for every two members a < b of one class: classes in
  /// Classes() order, pairs in the order of a nested loop over each
  /// class's members. Allocates once, however many classes there are.
  template <typename Fn>
  void ForEachClassPair(Fn&& fn) const {
    const std::vector<std::pair<uint32_t, uint32_t>> members = SortedMembers();
    for (size_t lo = 0; lo < members.size();) {
      size_t hi = lo + 1;
      while (hi < members.size() && members[hi].first == members[lo].first) {
        ++hi;
      }
      for (size_t i = lo; i < hi; ++i) {
        for (size_t j = i + 1; j < hi; ++j) {
          fn(Decode(members[i].second), Decode(members[j].second));
        }
      }
      lo = hi;
    }
  }

  /// Points every member directly at its root. After flattening (and until
  /// the next AddEquivalence) Find is a pure read — path halving never
  /// fires — so a flattened instance may be shared across threads. Called
  /// on the query graph's global equivalence when its lazy build completes.
  void Flatten();

  /// Forgets every equivalence. Spilled storage is retained, so an instance
  /// embedded in reusable per-entry state can be cleared on a session
  /// rebind and rebuilt to the same size without allocating.
  void Clear() {
    size_ = 0;
    spill_.clear();
  }

 private:
  /// Nodes held inside the object before the list spills to the heap.
  static constexpr uint32_t kInlineNodes = 16;

  struct Node {
    uint32_t key;     ///< ColumnRef::Encode() of the member
    uint32_t parent;  ///< node index; == own index for roots
  };

  /// The live node list: the inline array up to kInlineNodes nodes, the
  /// spill vector (holding every node) beyond.
  Node* nodes() const {
    return size_ <= kInlineNodes ? inline_.data() : spill_.data();
  }
  /// Index of the node for `key`, or -1.
  int IndexOf(uint32_t key) const;
  /// Index of the node for `key`, appending a singleton node if absent.
  uint32_t FindOrInsert(uint32_t key);
  /// Root index of node `i`, path-halving on the way.
  uint32_t RootIndex(uint32_t i) const;
  /// (root key, member key) of every node, sorted: classes come out
  /// grouped, in ascending root order, each with its members ascending.
  std::vector<std::pair<uint32_t, uint32_t>> SortedMembers() const;
  static ColumnRef Decode(uint32_t key) {
    return ColumnRef(static_cast<int>(key >> 16),
                     static_cast<int>(key & 0xffff));
  }

  // Roots are maintained as the class minimum so Find() is canonical
  // without a second pass. Parents are mutable for path halving.
  uint32_t size_ = 0;
  mutable std::array<Node, kInlineNodes> inline_{};
  mutable std::vector<Node> spill_;
};

}  // namespace cote

#endif  // COTE_QUERY_EQUIVALENCE_H_

#include "query/equivalence.h"

#include <algorithm>
#include <utility>

namespace cote {

int ColumnEquivalence::IndexOf(uint32_t key) const {
  const Node* n = nodes();
  for (uint32_t i = 0; i < size_; ++i) {
    if (n[i].key == key) return static_cast<int>(i);
  }
  return -1;
}

uint32_t ColumnEquivalence::FindOrInsert(uint32_t key) {
  const int found = IndexOf(key);
  if (found >= 0) return static_cast<uint32_t>(found);
  const uint32_t i = size_;
  if (i < kInlineNodes) {
    inline_[i] = Node{key, i};
  } else {
    // First node past the inline array: move the list to the spill vector,
    // which keeps its capacity across Clear().
    if (i == kInlineNodes) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(Node{key, i});
  }
  ++size_;
  return i;
}

uint32_t ColumnEquivalence::RootIndex(uint32_t i) const {
  Node* n = nodes();
  while (n[i].parent != i) {
    const uint32_t up = n[i].parent;
    const uint32_t grand = n[up].parent;
    if (grand == up) return up;
    n[i].parent = grand;  // path halving
    i = grand;
  }
  return i;
}

void ColumnEquivalence::AddEquivalence(ColumnRef a, ColumnRef b) {
  const uint32_t ia = FindOrInsert(a.Encode());
  const uint32_t ib = FindOrInsert(b.Encode());
  const uint32_t ra = RootIndex(ia), rb = RootIndex(ib);
  if (ra == rb) return;
  // Keep the minimum encoding as the root so Find() is canonical.
  Node* n = nodes();
  if (n[ra].key < n[rb].key) {
    n[rb].parent = ra;
  } else {
    n[ra].parent = rb;
  }
}

void ColumnEquivalence::Flatten() {
  Node* n = nodes();
  for (uint32_t i = 0; i < size_; ++i) n[i].parent = RootIndex(i);
}

ColumnRef ColumnEquivalence::Find(ColumnRef c) const {
  const int i = IndexOf(c.Encode());
  if (i < 0) return c;
  return Decode(nodes()[RootIndex(static_cast<uint32_t>(i))].key);
}

std::vector<std::pair<uint32_t, uint32_t>> ColumnEquivalence::SortedMembers()
    const {
  std::vector<std::pair<uint32_t, uint32_t>> members;
  members.reserve(size_);
  const Node* n = nodes();
  for (uint32_t i = 0; i < size_; ++i) {
    members.emplace_back(n[RootIndex(i)].key, n[i].key);
  }
  std::sort(members.begin(), members.end());
  return members;
}

std::vector<std::vector<ColumnRef>> ColumnEquivalence::Classes() const {
  const std::vector<std::pair<uint32_t, uint32_t>> members = SortedMembers();
  std::vector<std::vector<ColumnRef>> out;
  for (size_t lo = 0; lo < members.size();) {
    size_t hi = lo + 1;
    while (hi < members.size() && members[hi].first == members[lo].first) {
      ++hi;
    }
    if (hi - lo >= 2) {
      std::vector<ColumnRef>& cls = out.emplace_back();
      for (size_t k = lo; k < hi; ++k) cls.push_back(Decode(members[k].second));
    }
    lo = hi;
  }
  return out;
}

}  // namespace cote

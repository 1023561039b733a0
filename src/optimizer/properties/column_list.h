#ifndef COTE_OPTIMIZER_PROPERTIES_COLUMN_LIST_H_
#define COTE_OPTIMIZER_PROPERTIES_COLUMN_LIST_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "query/column_ref.h"

namespace cote {

/// \brief The column list of a physical property value, held inline.
///
/// Orders and partition keys are almost always a few join columns (the
/// synthetic workloads join a table pair on up to five), so the first
/// kInline columns live inside the object: copying, comparing and
/// canonicalizing a property value then touches no heap. A longer list (a
/// 9-column GROUP BY, say) spills to a heap buffer the list owns;
/// copy-assigning a value that fits reuses that buffer. This is the idiom
/// ColumnEquivalence uses for its inline nodes. The list is 28 bytes and
/// 4-byte aligned, so a Plan holding an order and a partition is no larger
/// than it was with two heap-backed vectors. It is a contiguous range, so
/// it converts to std::span<const ColumnRef>.
class ColumnList {
 public:
  static constexpr uint32_t kInline = 5;

  ColumnList() noexcept {}
  explicit ColumnList(std::span<const ColumnRef> cols) { Assign(cols); }
  ColumnList(const ColumnList& o) { Assign(o); }
  ColumnList(ColumnList&& o) noexcept { Steal(&o); }
  ColumnList& operator=(const ColumnList& o);
  ColumnList& operator=(ColumnList&& o) noexcept;
  ~ColumnList() { Release(); }

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const ColumnRef* data() const { return spilled() ? heap() : inline_; }
  const ColumnRef* begin() const { return data(); }
  const ColumnRef* end() const { return data() + size_; }
  const ColumnRef& operator[](uint32_t i) const { return data()[i]; }
  /// Bytes of the spill buffer; 0 while the columns are inline.
  size_t heap_bytes() const {
    return spilled() ? capacity_ * sizeof(ColumnRef) : 0;
  }

  bool Contains(ColumnRef c) const {
    return std::find(begin(), end(), c) != end();
  }

  void clear() { size_ = 0; }
  /// Replaces the contents with `cols`, which must not alias this list.
  void Assign(std::span<const ColumnRef> cols);
  void Append(ColumnRef c);
  /// Sorts ascending and drops repeated columns (set semantics).
  void SortUnique();

  bool operator==(const ColumnList& o) const;
  bool operator!=(const ColumnList& o) const { return !(*this == o); }
  bool operator==(std::span<const ColumnRef> o) const {
    return std::equal(begin(), end(), o.begin(), o.end());
  }

 private:
  bool spilled() const { return capacity_ > kInline; }
  ColumnRef* heap() const {
    ColumnRef* p = nullptr;
    std::memcpy(&p, heap_addr_, sizeof(p));
    return p;
  }
  void set_heap(ColumnRef* p) { std::memcpy(heap_addr_, &p, sizeof(p)); }
  ColumnRef* mutable_data() { return spilled() ? heap() : inline_; }
  /// The spill path: moves the contents to a heap buffer of at least `n`
  /// columns. The only member that allocates.
  void Grow(uint32_t n);
  void Release() {
    if (spilled()) delete[] heap();
  }
  /// Takes over `o`'s contents (and its heap buffer), leaving it empty.
  void Steal(ColumnList* o);

  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;  ///< past kInline, the columns are on the heap
  // The inline columns or, once spilled, the heap buffer's address, kept
  // as bytes so the list stays 4-byte aligned.
  union {
    ColumnRef inline_[kInline];
    unsigned char heap_addr_[sizeof(ColumnRef*)];
  };
  static_assert(sizeof(ColumnRef*) <= sizeof(ColumnRef) * kInline);
};

inline ColumnList& ColumnList::operator=(const ColumnList& o) {
  if (this != &o) Assign(o);
  return *this;
}

inline ColumnList& ColumnList::operator=(ColumnList&& o) noexcept {
  if (this == &o) return *this;
  if (o.spilled()) {
    Release();
    capacity_ = kInline;
    Steal(&o);
  } else {
    Assign(o);  // inline source: a copy, keeping this list's buffer
  }
  return *this;
}

inline void ColumnList::Steal(ColumnList* o) {
  size_ = o->size_;
  if (o->spilled()) {
    set_heap(o->heap());
    capacity_ = o->capacity_;
    o->capacity_ = kInline;
  } else {
    std::copy(o->begin(), o->end(), inline_);
  }
  o->size_ = 0;
}

inline void ColumnList::Assign(std::span<const ColumnRef> cols) {
  const auto n = static_cast<uint32_t>(cols.size());
  size_ = 0;  // nothing to keep if Grow runs
  if (n > capacity_) Grow(n);
  std::copy(cols.begin(), cols.end(), mutable_data());
  size_ = n;
}

inline void ColumnList::Append(ColumnRef c) {
  if (size_ == capacity_) Grow(size_ + 1);
  mutable_data()[size_++] = c;
}

inline void ColumnList::SortUnique() {
  ColumnRef* first = mutable_data();
  std::sort(first, first + size_);
  size_ = static_cast<uint32_t>(std::unique(first, first + size_) - first);
}

inline bool ColumnList::operator==(const ColumnList& o) const {
  return size_ == o.size_ && std::equal(begin(), end(), o.begin());
}

inline void ColumnList::Grow(uint32_t n) {
  const uint32_t cap = std::max(n, 2 * capacity_);
  auto* buf = new ColumnRef[cap];
  std::copy(begin(), end(), buf);
  Release();
  set_heap(buf);
  capacity_ = cap;
}

}  // namespace cote

#endif  // COTE_OPTIMIZER_PROPERTIES_COLUMN_LIST_H_

#ifndef COTE_COMMON_SLOT_VECTOR_H_
#define COTE_COMMON_SLOT_VECTOR_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace cote {

/// \brief A vector whose clear() keeps its elements alive for reuse.
///
/// The live elements are the prefix [0, size()); slots past it are
/// recycled capacity. push_back copy-assigns into the next recycled slot,
/// so an element that owns a buffer (an OrderProperty's column list, say)
/// keeps that buffer's capacity across clear() — where std::vector::clear()
/// would destroy the element and free its buffer. Refilling a cleared
/// SlotVector to a size it already had, with values no larger than before,
/// allocates nothing.
template <typename T>
class SlotVector {
 public:
  using value_type = T;
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  SlotVector() = default;
  SlotVector(const SlotVector&) = default;
  SlotVector& operator=(const SlotVector&) = default;
  // The slots leave with a move, so the moved-from vector is left empty.
  SlotVector(SlotVector&& other) noexcept
      : slots_(std::move(other.slots_)), size_(std::exchange(other.size_, 0)) {}
  SlotVector& operator=(SlotVector&& other) noexcept {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) {
      slots_.push_back(value);
    } else {
      slots_[size_] = value;
    }
    ++size_;
  }

  T& operator[](size_t i) { return slots_[i]; }
  const T& operator[](size_t i) const { return slots_[i]; }

  iterator begin() { return slots_.begin(); }
  iterator end() {
    return slots_.begin() + static_cast<std::ptrdiff_t>(size_);
  }
  const_iterator begin() const { return slots_.begin(); }
  const_iterator end() const {
    return slots_.begin() + static_cast<std::ptrdiff_t>(size_);
  }

 private:
  std::vector<T> slots_;
  size_t size_ = 0;
};

}  // namespace cote

#endif  // COTE_COMMON_SLOT_VECTOR_H_

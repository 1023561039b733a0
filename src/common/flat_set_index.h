#ifndef COTE_COMMON_FLAT_SET_INDEX_H_
#define COTE_COMMON_FLAT_SET_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/table_set.h"

namespace cote {

/// \brief Maps non-empty table-set masks to dense int32 indices.
///
/// The enumeration fast path replaces every per-set hash container
/// (MEMO directory, plan-counter state map, existence sets) with this
/// structure: for queries of up to kDenseMaxTables tables it is a
/// direct-indexed array of 2^n int32 slots — a lookup is a single load —
/// and above that it degrades to an open-addressing table (SplitMix64
/// hash, linear probing, key 0 as the empty sentinel; valid because an
/// indexed set is never empty). Assigned indices are dense and count up
/// from 0 in insertion order, so callers can use them to address a
/// side arena of per-set payloads.
class FlatSetIndex {
 public:
  /// Direct indexing caps at 2^20 slots (4 MiB of int32); beyond that the
  /// open-addressing table is both smaller and still O(1). The one ceiling
  /// of every dense per-set table: the enumerators' existence bitmaps, the
  /// top-down memo and the rank-parallel enumerator's Gosper partitioning
  /// all switch or gate at this value too.
  static constexpr int kDenseMaxTables = 20;

  explicit FlatSetIndex(int num_tables) {
    // Trust boundary: the dense/hashed mode switch. A table count outside
    // [0, 64] means the caller's query graph is corrupt; a silent clamp
    // here would turn that into wrong lookups later.
    COTE_CHECK_GE(num_tables, 0);
    COTE_CHECK_LE(num_tables, 64);
    if (num_tables <= kDenseMaxTables) {
      dense_.assign(size_t{1} << num_tables, -1);
    } else {
      keys_.assign(kInitialSlots, 0);
      vals_.assign(kInitialSlots, -1);
    }
  }

  /// Index previously assigned to `bits`, or -1. `bits` must be non-zero
  /// and, in dense mode, within the table count given at construction.
  int32_t Find(uint64_t bits) const {
    COTE_DCHECK_NE(bits, uint64_t{0});
    if (!dense_.empty()) {
      COTE_DCHECK_LT(bits, dense_.size());
      return dense_[bits];
    }
    size_t i = Slot(bits);
    while (keys_[i] != 0) {
      if (keys_[i] == bits) return vals_[i];
      i = (i + 1) & (keys_.size() - 1);
    }
    return -1;
  }

  /// Existing index of `bits`, or the next dense index if absent;
  /// `*created` reports which happened.
  int32_t FindOrInsert(uint64_t bits, bool* created) {
    COTE_DCHECK_NE(bits, uint64_t{0});
    if (!dense_.empty()) {
      COTE_DCHECK_LT(bits, dense_.size());
      int32_t& slot = dense_[bits];
      *created = slot < 0;
      if (slot < 0) slot = count_++;
      return slot;
    }
    size_t i = Slot(bits);
    while (keys_[i] != 0) {
      if (keys_[i] == bits) {
        *created = false;
        return vals_[i];
      }
      i = (i + 1) & (keys_.size() - 1);
    }
    *created = true;
    const int32_t idx = count_++;
    keys_[i] = bits;
    vals_[i] = idx;
    MaybeGrow();
    return idx;
  }

  int32_t size() const { return count_; }

  /// Re-keys the index for a (possibly different) table count without
  /// releasing storage: the dense array / hash slots are overwritten in
  /// place, so a reset to the same-or-smaller table count performs no heap
  /// allocation. This is what lets a session-owned PlanCounter rebind to a
  /// new query while staying allocation-steady across a workload.
  void Reset(int num_tables) {
    COTE_CHECK_GE(num_tables, 0);
    COTE_CHECK_LE(num_tables, 64);
    count_ = 0;
    if (num_tables <= kDenseMaxTables) {
      keys_.clear();
      vals_.clear();
      dense_.assign(size_t{1} << num_tables, -1);
    } else {
      dense_.clear();
      if (keys_.empty()) {
        keys_.assign(kInitialSlots, 0);
        vals_.assign(kInitialSlots, -1);
      } else {
        std::fill(keys_.begin(), keys_.end(), uint64_t{0});
        std::fill(vals_.begin(), vals_.end(), int32_t{-1});
      }
    }
  }

 private:
  static constexpr size_t kInitialSlots = 1024;  // power of two

  size_t Slot(uint64_t bits) const {
    return TableSetHash{}(TableSet(bits)) & (keys_.size() - 1);
  }

  void MaybeGrow() {
    // Keep load below ~70%.
    if (static_cast<size_t>(count_) * 10 < keys_.size() * 7) return;
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<int32_t> old_vals = std::move(vals_);
    keys_.assign(old_keys.size() * 2, 0);
    vals_.assign(old_vals.size() * 2, -1);
    for (size_t k = 0; k < old_keys.size(); ++k) {
      if (old_keys[k] == 0) continue;
      size_t i = Slot(old_keys[k]);
      while (keys_[i] != 0) i = (i + 1) & (keys_.size() - 1);
      keys_[i] = old_keys[k];
      vals_[i] = old_vals[k];
    }
  }

  std::vector<int32_t> dense_;  ///< direct index; empty in hashed mode
  std::vector<uint64_t> keys_;  ///< open addressing; 0 = empty slot
  std::vector<int32_t> vals_;
  int32_t count_ = 0;
};

}  // namespace cote

#endif  // COTE_COMMON_FLAT_SET_INDEX_H_

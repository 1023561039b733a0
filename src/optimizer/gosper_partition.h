#ifndef COTE_OPTIMIZER_GOSPER_PARTITION_H_
#define COTE_OPTIMIZER_GOSPER_PARTITION_H_

#include <cstdint>

#include "common/flat_set_index.h"

namespace cote {

/// \file
/// Partitioning of one popcount rank of the Gosper-ordered mask space.
///
/// The bottom-up enumerator visits the masks of each rank k in ascending
/// numeric order (Gosper's hack). The parallel enumerator splits that
/// sequence into one contiguous slice per worker: slices are balanced to
/// within one mask, ordered by worker index, and jointly cover the rank
/// exactly once. Because worker w's slice precedes worker w+1's in mask
/// order, merging per-worker results in worker order replays the serial
/// creation order — the keystone of the bit-identical-plan guarantee.
///
/// Unranking uses the colexicographic combinadic: the m-th smallest n-bit
/// mask with popcount k is found by scanning bits from n-1 down and taking
/// bit b exactly when C(b, k) <= m (then m -= C(b, k), --k). All binomials
/// are precomputed up to n = kGosperPartitionMaxTables, the flat-bitmap
/// ceiling of the enumerator; the parallel path is gated to that range.

/// Largest table count the partitioner supports: the dense per-set
/// ceiling, below which the rank-parallel enumerator's existence bitmap
/// is flat.
inline constexpr int kGosperPartitionMaxTables = FlatSetIndex::kDenseMaxTables;

/// Number of n-bit masks with popcount k: C(n, k). Requires
/// 0 <= k <= n <= kGosperPartitionMaxTables.
int64_t GosperRankSize(int n, int k);

/// The m-th (0-based) smallest n-bit mask with popcount k. Requires
/// 0 <= m < GosperRankSize(n, k) and k >= 1.
uint64_t GosperUnrank(int n, int k, int64_t m);

/// One worker's contiguous slice of a rank: `count` masks starting at
/// `first_mask`, advanced with Gosper's hack. count == 0 means the worker
/// has no masks in this rank (first_mask is then meaningless).
struct GosperSlice {
  uint64_t first_mask = 0;
  int64_t count = 0;
};

/// Balanced contiguous slice of rank (n, k) for `worker` of `num_workers`:
/// the first (C(n,k) mod W) workers get one extra mask. Requires
/// 0 <= worker < num_workers and 1 <= k <= n <= kGosperPartitionMaxTables.
GosperSlice PartitionGosperRank(int n, int k, int worker, int num_workers);

}  // namespace cote

#endif  // COTE_OPTIMIZER_GOSPER_PARTITION_H_

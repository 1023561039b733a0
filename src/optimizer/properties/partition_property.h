#ifndef COTE_OPTIMIZER_PROPERTIES_PARTITION_PROPERTY_H_
#define COTE_OPTIMIZER_PROPERTIES_PARTITION_PROPERTY_H_

#include <string>
#include <vector>

#include "query/column_ref.h"
#include "query/equivalence.h"

namespace cote {

/// \brief Data-partition physical property for shared-nothing planning.
///
/// Describes how the rows of an intermediate result are distributed across
/// the nodes of the parallel system (the paper's second property, §3.2).
/// In serial mode every plan carries kSerial.
class PartitionProperty {
 public:
  enum class Kind {
    kSerial,      ///< serial optimizer: partitioning not modeled
    kHash,        ///< hash-distributed on a set of key columns
    kReplicated,  ///< full copy on every node
    kSingleNode,  ///< all rows on one node
  };

  PartitionProperty() : kind_(Kind::kSerial) {}
  static PartitionProperty Serial() { return PartitionProperty(); }
  static PartitionProperty Hash(std::vector<ColumnRef> columns);
  static PartitionProperty Replicated() {
    PartitionProperty p;
    p.kind_ = Kind::kReplicated;
    return p;
  }
  static PartitionProperty SingleNode() {
    PartitionProperty p;
    p.kind_ = Kind::kSingleNode;
    return p;
  }

  /// Makes this a hash partitioning on `columns`, reusing this property's
  /// key buffer: the allocation-free form of Hash() for scratch objects.
  void AssignHash(const std::vector<ColumnRef>& columns);

  Kind kind() const { return kind_; }
  /// Hash key columns, kept sorted (set semantics).
  const std::vector<ColumnRef>& columns() const { return columns_; }

  bool operator==(const PartitionProperty& o) const {
    return kind_ == o.kind_ && columns_ == o.columns_;
  }
  bool operator!=(const PartitionProperty& o) const { return !(*this == o); }

  /// Rewrites key columns through the equivalence relation and re-sorts.
  PartitionProperty Canonicalize(const ColumnEquivalence& equiv) const;

  /// Allocation-free variant for the estimate-mode hot path: writes the
  /// canonical form into `*out`, reusing its key buffer's capacity.
  /// `out` must not alias `this`.
  void CanonicalizeInto(const ColumnEquivalence& equiv,
                        PartitionProperty* out) const;

  /// True if this distribution can serve as `required` without data
  /// movement. Replicated serves any hash requirement; single-node rows
  /// are trivially "co-partitioned" with anything on that node.
  bool Satisfies(const PartitionProperty& required) const;

  /// True if the partition keys are a subset of the given (canonical)
  /// column set — i.e. co-location on these join columns holds.
  bool KeysSubsetOf(const std::vector<ColumnRef>& columns) const;

  std::string ToString() const;

 private:
  /// Sorts and dedupes hash keys in place (set semantics).
  static void NormalizeKeys(std::vector<ColumnRef>* columns);

  Kind kind_;
  std::vector<ColumnRef> columns_;
};

struct PartitionPropertyHash {
  size_t operator()(const PartitionProperty& p) const {
    size_t h = static_cast<size_t>(p.kind()) * 0x9e3779b97f4a7c15ULL;
    for (const ColumnRef& c : p.columns()) {
      h = h * 1315423911u + c.Encode();
    }
    return h;
  }
};

}  // namespace cote

#endif  // COTE_OPTIMIZER_PROPERTIES_PARTITION_PROPERTY_H_

#ifndef COTE_OPTIMIZER_PROPERTIES_PARTITION_PROPERTY_H_
#define COTE_OPTIMIZER_PROPERTIES_PARTITION_PROPERTY_H_

#include <initializer_list>
#include <span>
#include <string>

#include "optimizer/properties/column_list.h"
#include "query/column_ref.h"

namespace cote {

/// \brief Data-partition physical property for shared-nothing planning.
///
/// Describes how the rows of an intermediate result are distributed across
/// the nodes of the parallel system (the paper's second property, §3.2).
/// In serial mode every plan carries kSerial. Hash keys are held inline
/// (ColumnList), like an order's columns.
class PartitionProperty {
 public:
  enum class Kind {
    kSerial,      ///< serial optimizer: partitioning not modeled
    kHash,        ///< hash-distributed on a set of key columns
    kReplicated,  ///< full copy on every node
    kSingleNode,  ///< all rows on one node
  };

  PartitionProperty() = default;
  static PartitionProperty Serial() { return PartitionProperty(); }
  static PartitionProperty Hash(std::span<const ColumnRef> columns);
  static PartitionProperty Hash(std::initializer_list<ColumnRef> columns) {
    return Hash(std::span<const ColumnRef>(columns.begin(), columns.size()));
  }
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

  Kind kind() const { return kind_; }
  /// Hash key columns, kept sorted (set semantics).
  const ColumnList& columns() const { return columns_; }

  bool operator==(const PartitionProperty& o) const {
    return kind_ == o.kind_ && columns_ == o.columns_;
  }
  bool operator!=(const PartitionProperty& o) const { return !(*this == o); }

  /// Rewrites key columns through the equivalence relation (any type with
  /// `ColumnRef Find(ColumnRef) const`) and re-sorts.
  template <typename Equivalence>
  PartitionProperty Canonicalize(const Equivalence& equiv) const;

  /// True if this distribution can serve as `required` without data
  /// movement. Replicated serves any hash requirement; single-node rows
  /// are trivially "co-partitioned" with anything on that node.
  bool Satisfies(const PartitionProperty& required) const;

  /// True if the partition keys are a subset of the given (canonical)
  /// column set — i.e. co-location on these join columns holds.
  bool KeysSubsetOf(std::span<const ColumnRef> columns) const;

  std::string ToString() const;

 private:
  Kind kind_ = Kind::kSerial;
  ColumnList columns_;
};

template <typename Equivalence>
PartitionProperty PartitionProperty::Canonicalize(
    const Equivalence& equiv) const {
  PartitionProperty out;
  out.kind_ = kind_;
  if (kind_ != Kind::kHash) return out;
  for (const ColumnRef& c : columns_) out.columns_.Append(equiv.Find(c));
  out.columns_.SortUnique();
  return out;
}

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

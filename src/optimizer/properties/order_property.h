#ifndef COTE_OPTIMIZER_PROPERTIES_ORDER_PROPERTY_H_
#define COTE_OPTIMIZER_PROPERTIES_ORDER_PROPERTY_H_

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "optimizer/properties/column_list.h"
#include "query/column_ref.h"

namespace cote {

/// \brief The classic "interesting order" physical property (System R, §2.2).
///
/// An order is a sequence of columns the rows are sorted on. The empty order
/// is the paper's "DC" (don't-care) value: no useful order. Orders are
/// compared *after* canonicalization through a column-equivalence relation,
/// because join predicates make orders on different columns equivalent
/// (`R.a = S.a` makes orders on R.a and S.a interchangeable). The columns
/// are held inline (ColumnList), so a value up to ColumnList::kInline
/// columns long is copied and compared without touching the heap.
class OrderProperty {
 public:
  OrderProperty() = default;
  explicit OrderProperty(std::span<const ColumnRef> columns)
      : columns_(columns) {}
  OrderProperty(std::initializer_list<ColumnRef> columns)
      : columns_(std::span<const ColumnRef>(columns.begin(), columns.size())) {}

  static OrderProperty None() { return OrderProperty(); }

  const ColumnList& columns() const { return columns_; }
  bool IsNone() const { return columns_.empty(); }
  int size() const { return static_cast<int>(columns_.size()); }

  bool operator==(const OrderProperty& o) const {
    return columns_ == o.columns_;
  }
  bool operator!=(const OrderProperty& o) const { return !(*this == o); }

  /// Appends a column (no dedupe).
  void Append(ColumnRef c) { columns_.Append(c); }

  /// Rewrites every column to its equivalence-class representative and
  /// drops repeated columns (a column equivalent to an earlier one adds no
  /// ordering information). `Equivalence` is any relation with
  /// `ColumnRef Find(ColumnRef) const`: a MEMO entry's EntryEquivalence on
  /// the optimizer's paths.
  template <typename Equivalence>
  OrderProperty Canonicalize(const Equivalence& equiv) const;

  /// True if rows ordered by *this* also satisfy `required` (prefix
  /// semantics): `required` must be a prefix of this order. This is the
  /// paper's subsumption operator: required ≺ this.
  bool SatisfiesPrefix(const OrderProperty& required) const;

  /// True if the first required.size() columns of this order are exactly
  /// the columns of `required`, in any permutation (set semantics — what
  /// GROUP BY coverage needs, §4 item 2).
  bool SatisfiesSet(const OrderProperty& required) const;

  /// True if `general` strictly subsumes *this* under prefix semantics
  /// (this ≺ general and this != general).
  bool StrictlySubsumedBy(const OrderProperty& general) const {
    return general.size() > size() && general.SatisfiesPrefix(*this);
  }

  /// Concatenation, skipping columns already present.
  OrderProperty Extend(const OrderProperty& suffix) const;

  /// Set of distinct tables whose columns appear.
  std::vector<int> Tables() const;

  std::string ToString() const;

 private:
  ColumnList columns_;
};

template <typename Equivalence>
OrderProperty OrderProperty::Canonicalize(const Equivalence& equiv) const {
  OrderProperty out;
  for (const ColumnRef& c : columns_) {
    const ColumnRef rep = equiv.Find(c);
    if (!out.columns_.Contains(rep)) out.columns_.Append(rep);
  }
  return out;
}

struct OrderPropertyHash {
  size_t operator()(const OrderProperty& o) const {
    size_t h = 0x9e3779b9;
    for (const ColumnRef& c : o.columns()) {
      h = h * 1315423911u + c.Encode();
    }
    return h;
  }
};

}  // namespace cote

#endif  // COTE_OPTIMIZER_PROPERTIES_ORDER_PROPERTY_H_

#include "optimizer/properties/partition_property.h"

#include <algorithm>

#include "common/str_util.h"

namespace cote {

void PartitionProperty::NormalizeKeys(std::vector<ColumnRef>* columns) {
  std::sort(columns->begin(), columns->end());
  columns->erase(std::unique(columns->begin(), columns->end()),
                 columns->end());
}

PartitionProperty PartitionProperty::Hash(std::vector<ColumnRef> columns) {
  PartitionProperty p;
  p.kind_ = Kind::kHash;
  NormalizeKeys(&columns);
  p.columns_ = std::move(columns);
  return p;
}

void PartitionProperty::AssignHash(const std::vector<ColumnRef>& columns) {
  kind_ = Kind::kHash;
  columns_ = columns;
  NormalizeKeys(&columns_);
}

PartitionProperty PartitionProperty::Canonicalize(
    const ColumnEquivalence& equiv) const {
  PartitionProperty out;
  CanonicalizeInto(equiv, &out);
  return out;
}

void PartitionProperty::CanonicalizeInto(const ColumnEquivalence& equiv,
                                         PartitionProperty* out) const {
  out->kind_ = kind_;
  std::vector<ColumnRef>& out_cols = out->columns_;
  out_cols.clear();
  if (kind_ != Kind::kHash) return;
  for (const ColumnRef& c : columns_) out_cols.push_back(equiv.Find(c));
  NormalizeKeys(&out_cols);
}

bool PartitionProperty::Satisfies(const PartitionProperty& required) const {
  if (*this == required) return true;
  switch (required.kind_) {
    case Kind::kSerial:
      return true;  // serial mode: no distribution requirements
    case Kind::kHash:
      // A replicated copy co-locates with any partitioning.
      return kind_ == Kind::kReplicated;
    case Kind::kReplicated:
      return false;
    case Kind::kSingleNode:
      return kind_ == Kind::kReplicated;
  }
  return false;
}

bool PartitionProperty::KeysSubsetOf(
    const std::vector<ColumnRef>& columns) const {
  if (kind_ != Kind::kHash) return false;
  for (const ColumnRef& c : columns_) {
    if (std::find(columns.begin(), columns.end(), c) == columns.end()) {
      return false;
    }
  }
  return !columns_.empty();
}

std::string PartitionProperty::ToString() const {
  switch (kind_) {
    case Kind::kSerial:
      return "serial";
    case Kind::kReplicated:
      return "replicated";
    case Kind::kSingleNode:
      return "single-node";
    case Kind::kHash: {
      std::vector<std::string> parts;
      for (const ColumnRef& c : columns_) parts.push_back(c.ToString());
      return "hash(" + Join(parts, ",") + ")";
    }
  }
  return "?";
}

}  // namespace cote

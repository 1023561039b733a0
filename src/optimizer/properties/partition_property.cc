#include "optimizer/properties/partition_property.h"

#include <algorithm>
#include <vector>

#include "common/str_util.h"

namespace cote {

PartitionProperty PartitionProperty::Hash(std::span<const ColumnRef> columns) {
  PartitionProperty p;
  p.kind_ = Kind::kHash;
  p.columns_.Assign(columns);
  p.columns_.SortUnique();
  return p;
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
    std::span<const ColumnRef> columns) const {
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

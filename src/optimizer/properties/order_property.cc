#include "optimizer/properties/order_property.h"

#include <algorithm>

#include "common/str_util.h"

namespace cote {

bool OrderProperty::SatisfiesPrefix(const OrderProperty& required) const {
  if (required.size() > size()) return false;
  return std::equal(required.columns_.begin(), required.columns_.end(),
                    columns_.begin());
}

bool OrderProperty::SatisfiesSet(const OrderProperty& required) const {
  if (required.size() > size()) return false;
  for (int i = 0; i < required.size(); ++i) {
    if (!required.columns_.Contains(columns_[i])) return false;
  }
  // The prefix columns are all members of `required` and (being distinct)
  // there are required.size() of them, so they form exactly that set.
  return true;
}

OrderProperty OrderProperty::Extend(const OrderProperty& suffix) const {
  OrderProperty out = *this;
  for (const ColumnRef& c : suffix.columns_) {
    if (!out.columns_.Contains(c)) out.columns_.Append(c);
  }
  return out;
}

std::vector<int> OrderProperty::Tables() const {
  std::vector<int> out;
  for (const ColumnRef& c : columns_) {
    if (std::find(out.begin(), out.end(), c.table) == out.end()) {
      out.push_back(static_cast<int>(c.table));
    }
  }
  return out;
}

std::string OrderProperty::ToString() const {
  if (IsNone()) return "DC";
  std::vector<std::string> parts;
  for (const ColumnRef& c : columns_) parts.push_back(c.ToString());
  return "(" + Join(parts, ",") + ")";
}

}  // namespace cote

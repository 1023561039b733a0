#include "catalog/table.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cote {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "INT";
    case ColumnType::kBigInt:
      return "BIGINT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kDecimal:
      return "DECIMAL";
    case ColumnType::kVarchar:
      return "VARCHAR";
    case ColumnType::kDate:
      return "DATE";
  }
  return "?";
}

Table::Table(std::string name, std::vector<Column> columns, double row_count)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      row_count_(row_count) {
  // Default page count: assume ~50 rows per page, at least one page.
  pages_ = std::max(1.0, row_count_ / 50.0);
}

int Table::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

TableBuilder::TableBuilder(std::string name, double row_count)
    : name_(std::move(name)), row_count_(row_count) {}

TableBuilder& TableBuilder::Col(const std::string& name, ColumnType type,
                                double ndv) {
  Column c;
  c.name = name;
  c.type = type;
  // Unknown NDV defaults to 10% of rows, a common catalog heuristic.
  c.ndv = ndv > 0 ? ndv : std::max(1.0, row_count_ * 0.1);
  columns_.push_back(std::move(c));
  return *this;
}

std::vector<int> TableBuilder::Resolve(
    const std::vector<std::string>& names) const {
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& n : names) {
    int ord = -1;
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i].name == n) {
        ord = static_cast<int>(i);
        break;
      }
    }
    // Checked in every build type: an unknown name would otherwise be
    // stored as ordinal -1 and later index columns_[-1].
    COTE_CHECK(ord >= 0 && "unknown column in table builder");
    out.push_back(ord);
  }
  return out;
}

TableBuilder& TableBuilder::PrimaryKey(const std::vector<std::string>& columns) {
  primary_key_ = Resolve(columns);
  return *this;
}

TableBuilder& TableBuilder::Idx(const std::string& name,
                                const std::vector<std::string>& columns,
                                bool unique) {
  Index idx;
  idx.name = name;
  idx.key_columns = Resolve(columns);
  idx.unique = unique;
  indexes_.push_back(std::move(idx));
  return *this;
}

TableBuilder& TableBuilder::Fk(const std::vector<std::string>& columns,
                               const std::string& ref_table,
                               const std::vector<std::string>& ref_columns) {
  fks_.push_back(PendingFk{columns, ref_table, ref_columns});
  return *this;
}

TableBuilder& TableBuilder::HashPartition(
    const std::vector<std::string>& columns) {
  partitioning_ = PartitioningSpec::Hash(Resolve(columns));
  return *this;
}

TableBuilder& TableBuilder::Replicate() {
  partitioning_ = PartitioningSpec::Replicated();
  return *this;
}

TableBuilder& TableBuilder::Pages(double pages) {
  pages_ = pages;
  return *this;
}

Table TableBuilder::Build() {
  // Key columns of a primary key are unique by definition.
  if (!primary_key_.empty() && primary_key_.size() == 1) {
    columns_[primary_key_[0]].ndv = row_count_;
  }
  // Synthesize per-column histograms, seeded by table+column name so the
  // same schema always produces the same statistics.
  for (Column& c : columns_) {
    uint64_t seed = 1469598103934665603ULL;
    for (unsigned char ch : name_ + "." + c.name) {
      seed ^= ch;
      seed *= 1099511628211ULL;
    }
    c.histogram = Histogram::Synthesize(row_count_, c.ndv, 32, seed);
  }
  Table t(name_, columns_, row_count_);
  if (pages_ > 0) t.set_pages(pages_);
  t.SetPrimaryKey(primary_key_);
  for (auto& idx : indexes_) t.AddIndex(idx);
  for (auto& fk : fks_) {
    ForeignKey out;
    out.columns = Resolve(fk.columns);
    out.referenced_table = fk.ref_table;
    out.referenced_columns = fk.ref_columns;
    t.AddForeignKey(std::move(out));
  }
  t.SetPartitioning(partitioning_);
  return t;
}

}  // namespace cote

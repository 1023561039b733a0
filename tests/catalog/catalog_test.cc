#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include "catalog/table.h"

namespace cote {
namespace {

Table MakeOrders() {
  return TableBuilder("orders", 1000)
      .Col("o_id", ColumnType::kBigInt, 1000)
      .Col("o_custkey", ColumnType::kInt, 100)
      .Col("o_date", ColumnType::kDate)
      .PrimaryKey({"o_id"})
      .Idx("orders_pk", {"o_id"}, /*unique=*/true)
      .Idx("orders_cust", {"o_custkey", "o_date"})
      .Fk({"o_custkey"}, "customer", {"c_id"})
      .HashPartition({"o_id"})
      .Pages(123)
      .Build();
}

TEST(TableBuilderTest, ColumnsAndStats) {
  Table t = MakeOrders();
  EXPECT_EQ(t.name(), "orders");
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_DOUBLE_EQ(t.row_count(), 1000);
  EXPECT_DOUBLE_EQ(t.pages(), 123);
  EXPECT_EQ(t.FindColumn("o_custkey"), 1);
  EXPECT_EQ(t.FindColumn("nope"), -1);
  // Primary key column NDV is promoted to the row count.
  EXPECT_DOUBLE_EQ(t.column(0).ndv, 1000);
  // Defaulted NDV = 10% of rows.
  EXPECT_DOUBLE_EQ(t.column(2).ndv, 100);
}

TEST(TableBuilderTest, IndexesAndKeys) {
  Table t = MakeOrders();
  ASSERT_EQ(t.indexes().size(), 2u);
  EXPECT_TRUE(t.indexes()[0].unique);
  EXPECT_EQ(t.indexes()[1].key_columns, (std::vector<int>{1, 2}));
  EXPECT_EQ(t.primary_key(), (std::vector<int>{0}));
  ASSERT_EQ(t.foreign_keys().size(), 1u);
  EXPECT_EQ(t.foreign_keys()[0].referenced_table, "customer");
}

// Column names are checked in every build type, so an unknown one cannot
// be stored as ordinal -1.
TEST(TableBuilderDeathTest, UnknownPrimaryKeyColumnIsFatal) {
  EXPECT_DEATH(
      {
        TableBuilder b("t", 10);
        b.Col("a", ColumnType::kInt).PrimaryKey({"nope"});
      },
      "COTE_CHECK failed");
}

TEST(TableBuilderDeathTest, UnknownIndexColumnIsFatal) {
  EXPECT_DEATH(
      {
        TableBuilder b("t", 10);
        b.Col("a", ColumnType::kInt).Idx("i", {"nope"});
      },
      "COTE_CHECK failed");
}

TEST(TableBuilderTest, Partitioning) {
  Table t = MakeOrders();
  EXPECT_EQ(t.partitioning().kind, PartitionKind::kHash);
  EXPECT_EQ(t.partitioning().key_columns, (std::vector<int>{0}));

  Table r = TableBuilder("r", 10).Col("a", ColumnType::kInt).Replicate().Build();
  EXPECT_EQ(r.partitioning().kind, PartitionKind::kReplicated);

  Table s = TableBuilder("s", 10).Col("a", ColumnType::kInt).Build();
  EXPECT_EQ(s.partitioning().kind, PartitionKind::kSingleNode);
}

TEST(TableBuilderTest, DefaultPages) {
  Table t = TableBuilder("t", 500).Col("a", ColumnType::kInt).Build();
  EXPECT_DOUBLE_EQ(t.pages(), 10);  // 50 rows per page
}

TEST(CatalogTest, AddAndFind) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeOrders()).ok());
  EXPECT_NE(catalog.FindTable("orders"), nullptr);
  EXPECT_EQ(catalog.FindTable("nope"), nullptr);
  EXPECT_EQ(catalog.num_tables(), 1);

  auto got = catalog.GetTable("orders");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name(), "orders");
  EXPECT_EQ(catalog.GetTable("nope").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeOrders()).ok());
  Status s = catalog.AddTable(MakeOrders());
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, PointersStableAcrossGrowth) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeOrders()).ok());
  const Table* first = catalog.FindTable("orders");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(catalog
                    .AddTable(TableBuilder("t" + std::to_string(i), 10)
                                  .Col("a", ColumnType::kInt)
                                  .Build())
                    .ok());
  }
  EXPECT_EQ(catalog.FindTable("orders"), first);
}

TEST(ColumnTypeTest, Names) {
  EXPECT_STREQ(ColumnTypeName(ColumnType::kInt), "INT");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kVarchar), "VARCHAR");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kDate), "DATE");
}

}  // namespace
}  // namespace cote

#include "parser/parser.h"

#include <gtest/gtest.h>

#include <ostream>

namespace cote {
namespace {

ast::SelectStatement Parse(const std::string& sql) {
  auto stmt = Parser::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return stmt.ok() ? std::move(stmt).value() : ast::SelectStatement{};
}

TEST(ParserTest, MinimalSelect) {
  auto stmt = Parse("SELECT * FROM t");
  ASSERT_EQ(stmt.select_list.size(), 1u);
  EXPECT_TRUE(stmt.select_list[0].star);
  ASSERT_EQ(stmt.from.size(), 1u);
  EXPECT_EQ(stmt.from[0].table.table_name, "t");
}

TEST(ParserTest, SelectListColumnsAndAggregates) {
  auto stmt = Parse(
      "SELECT a.x, y AS alias1, COUNT(*), SUM(a.z) AS total FROM a");
  ASSERT_EQ(stmt.select_list.size(), 4u);
  EXPECT_EQ(stmt.select_list[0].column.qualifier, "a");
  EXPECT_EQ(stmt.select_list[0].column.column, "x");
  EXPECT_EQ(stmt.select_list[1].output_alias, "alias1");
  EXPECT_EQ(stmt.select_list[2].agg, ast::AggFunc::kCount);
  EXPECT_TRUE(stmt.select_list[2].star);
  EXPECT_EQ(stmt.select_list[3].agg, ast::AggFunc::kSum);
  EXPECT_EQ(stmt.select_list[3].output_alias, "total");
}

TEST(ParserTest, FromWithAliases) {
  auto stmt = Parse("SELECT * FROM orders AS o, lineitem l");
  ASSERT_EQ(stmt.from.size(), 2u);
  EXPECT_EQ(stmt.from[0].table.alias, "o");
  EXPECT_EQ(stmt.from[1].table.alias, "l");
}

TEST(ParserTest, JoinClauses) {
  auto stmt = Parse(
      "SELECT * FROM a JOIN b ON a.x = b.x "
      "LEFT OUTER JOIN c ON b.y = c.y AND b.z = c.z "
      "INNER JOIN d ON c.w = d.w");
  ASSERT_EQ(stmt.from.size(), 1u);
  ASSERT_EQ(stmt.from[0].joins.size(), 3u);
  EXPECT_FALSE(stmt.from[0].joins[0].left_outer);
  EXPECT_TRUE(stmt.from[0].joins[1].left_outer);
  EXPECT_EQ(stmt.from[0].joins[1].on.size(), 2u);
  EXPECT_FALSE(stmt.from[0].joins[2].left_outer);
}

TEST(ParserTest, WherePredicates) {
  auto stmt = Parse(
      "SELECT * FROM a, b WHERE a.x = b.x AND a.y > 5 AND a.s LIKE 'z%' "
      "AND a.d BETWEEN 1 AND 10 AND a.e <> 3 AND a.f = DATE '2001-01-01'");
  ASSERT_EQ(stmt.where.size(), 6u);
  EXPECT_TRUE(stmt.where[0].is_join);
  EXPECT_FALSE(stmt.where[1].is_join);
  EXPECT_EQ(stmt.where[1].op, ast::CompareOp::kGt);
  EXPECT_EQ(stmt.where[2].op, ast::CompareOp::kLike);
  EXPECT_EQ(stmt.where[3].op, ast::CompareOp::kBetween);
  EXPECT_EQ(stmt.where[3].literal.text, "1");
  EXPECT_EQ(stmt.where[3].literal2.text, "10");
  EXPECT_EQ(stmt.where[4].op, ast::CompareOp::kNe);
  EXPECT_EQ(stmt.where[5].literal.text, "2001-01-01");
}

TEST(ParserTest, GroupByOrderBy) {
  auto stmt = Parse(
      "SELECT a.x FROM a GROUP BY a.x, a.y ORDER BY a.x DESC, a.y ASC, a.z");
  ASSERT_EQ(stmt.group_by.size(), 2u);
  ASSERT_EQ(stmt.order_by.size(), 3u);
  EXPECT_TRUE(stmt.order_by[0].descending);
  EXPECT_FALSE(stmt.order_by[1].descending);
  EXPECT_FALSE(stmt.order_by[2].descending);
}

TEST(ParserTest, DistinctAndSemicolon) {
  auto stmt = Parse("SELECT DISTINCT a.x FROM a;");
  EXPECT_TRUE(stmt.distinct);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  auto stmt = Parse("select a.x from a where a.x = 1 group by a.x");
  EXPECT_EQ(stmt.group_by.size(), 1u);
}

// Identifiers that merely start with (or contain) a keyword stay
// identifiers: keyword matching is whole-token, never by prefix.
TEST(ParserTest, KeywordPrefixedIdentifiers) {
  auto stmt = Parse(
      "SELECT selected, orders.order_date FROM orders, fromage "
      "WHERE orders.o_key = fromage.f_key AND fromage.by_region = 3 "
      "ORDER BY order_date");
  ASSERT_EQ(stmt.select_list.size(), 2u);
  EXPECT_EQ(stmt.select_list[0].column.column, "selected");
  EXPECT_EQ(stmt.select_list[1].column.qualifier, "orders");
  EXPECT_EQ(stmt.select_list[1].column.column, "order_date");
  ASSERT_EQ(stmt.from.size(), 2u);
  EXPECT_EQ(stmt.from[0].table.table_name, "orders");
  EXPECT_EQ(stmt.from[0].table.alias, "");
  EXPECT_EQ(stmt.from[1].table.table_name, "fromage");
  ASSERT_EQ(stmt.where.size(), 2u);
  EXPECT_TRUE(stmt.where[0].is_join);
  EXPECT_EQ(stmt.where[1].left.column, "by_region");
  ASSERT_EQ(stmt.order_by.size(), 1u);
  EXPECT_EQ(stmt.order_by[0].column.column, "order_date");
}

TEST(ParserTest, KeywordPrefixedAliases) {
  auto stmt = Parse("SELECT * FROM orders selected, lineitem by_region");
  ASSERT_EQ(stmt.from.size(), 2u);
  EXPECT_EQ(stmt.from[0].table.alias, "selected");
  EXPECT_EQ(stmt.from[1].table.alias, "by_region");
}

TEST(ParserTest, MixedCaseKeywords) {
  auto stmt = Parse(
      "SeLeCt DiStInCt CoUnT(*) FrOm a LeFt OuTeR jOiN b On a.x = b.x "
      "WhErE a.y BeTwEeN 1 aNd 2 gRoUp By a.x OrDeR bY a.x DeSc");
  EXPECT_TRUE(stmt.distinct);
  ASSERT_EQ(stmt.select_list.size(), 1u);
  EXPECT_EQ(stmt.select_list[0].agg, ast::AggFunc::kCount);
  ASSERT_EQ(stmt.from[0].joins.size(), 1u);
  EXPECT_TRUE(stmt.from[0].joins[0].left_outer);
  ASSERT_EQ(stmt.where.size(), 1u);
  EXPECT_EQ(stmt.where[0].op, ast::CompareOp::kBetween);
  ASSERT_EQ(stmt.group_by.size(), 1u);
  ASSERT_EQ(stmt.order_by.size(), 1u);
  EXPECT_TRUE(stmt.order_by[0].descending);
}

// A row count is the number's leading digits, up to the largest long long.
TEST(ParserTest, RowCountReadsLeadingDigits) {
  EXPECT_EQ(Parse("SELECT * FROM t LIMIT 25").fetch_first, 25);
  EXPECT_EQ(Parse("SELECT * FROM t LIMIT 007").fetch_first, 7);
  EXPECT_EQ(Parse("SELECT * FROM t LIMIT 3.7").fetch_first, 3);
  EXPECT_EQ(Parse("SELECT * FROM t LIMIT .5").fetch_first, 0);
  EXPECT_EQ(
      Parse("SELECT * FROM t FETCH FIRST 9223372036854775807 ROWS ONLY")
          .fetch_first,
      9223372036854775807LL);
  EXPECT_EQ(Parse("SELECT * FROM t").fetch_first, -1);
}

// Each case pins the exact ParseError message, including the offset and
// the text of the token found there.
struct BadSql {
  const char* name;
  const char* sql;
  const char* message;
};

// Prints the case's name. gtest_discover_tests names each case after its
// printed parameter, and the default byte dump would show the string
// pointers, which differ from build to build and from run to run.
void PrintTo(const BadSql& c, std::ostream* os) { *os << c.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadSql> {};

TEST_P(ParserErrorTest, Rejected) {
  auto stmt = Parser::Parse(GetParam().sql);
  EXPECT_FALSE(stmt.ok()) << GetParam().sql;
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  EXPECT_EQ(stmt.status().message(), GetParam().message) << GetParam().sql;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadSql{"MissingSelect", "FROM t",
               "expected select, found ident(FROM) at offset 0"},
        BadSql{"MissingFrom", "SELECT * t",
               "expected from, found ident(t) at offset 9"},
        BadSql{"MissingTable", "SELECT * FROM",
               "expected table name, found <end> at offset 13"},
        BadSql{"EmptyWhere", "SELECT * FROM t WHERE",
               "expected column, found <end> at offset 21"},
        BadSql{"MissingOperand", "SELECT * FROM t WHERE x <",
               "expected literal, found <end> at offset 25"},
        BadSql{"NonEqualityJoin", "SELECT * FROM t WHERE x < y",
               "only equality join predicates are supported, found ident(y) "
               "at offset 26"},
        BadSql{"MissingOn", "SELECT * FROM t JOIN u",
               "expected on, found <end> at offset 22"},
        BadSql{"MissingBy", "SELECT * FROM t GROUP x",
               "expected by, found ident(x) at offset 22"},
        BadSql{"EmptyOrderBy", "SELECT * FROM t ORDER BY",
               "expected column, found <end> at offset 24"},
        BadSql{"UnclosedAggregate", "SELECT COUNT( FROM t",
               "expected column, found ident(FROM) at offset 14"},
        BadSql{"LikeNeedsString", "SELECT * FROM t WHERE a LIKE 5",
               "LIKE requires a string pattern, found <end> at offset 30"},
        BadSql{"DanglingComma", "SELECT * FROM t, WHERE a = 1",
               "expected table name, found ident(WHERE) at offset 17"},
        BadSql{"TrailingGarbage", "SELECT * FROM t ORDER BY a 5",
               "expected end of statement, found num(5) at offset 27"},
        // Keyword boundaries: a keyword-prefixed identifier is no keyword,
        // and a reserved word is never a table alias or a column.
        BadSql{"OrderAfterKeywordPrefixedTable", "SELECT * FROM orders order",
               "expected by, found <end> at offset 26"},
        BadSql{"KeywordPrefixedIdentifierIsNoBy",
               "SELECT * FROM t GROUP by_region",
               "expected by, found ident(by_region) at offset 22"},
        BadSql{"SecondAlias", "SELECT selected FROM fromage t u",
               "expected end of statement, found ident(u) at offset 31"},
        BadSql{"ReservedWordAsAlias", "SELECT * FROM t select",
               "expected end of statement, found ident(select) at offset 16"},
        BadSql{"MixedCaseReservedWordAsColumn",
               "SELECT * FROM t, u WHERE t.a = u.b AnD oRdEr = 1",
               "expected column, found ident(oRdEr) at offset 39"},
        BadSql{"ReservedWordAsSelectColumn", "SELECT group FROM t",
               "expected column, found ident(group) at offset 7"},
        BadSql{"MixedCaseEmptyGroupBy", "sElEcT * fRoM t gRoUp By",
               "expected column, found <end> at offset 24"},
        // A row count must fit a long long.
        BadSql{"LimitOutOfRange", "SELECT * FROM t LIMIT 99999999999999999999",
               "row count out of range, found num(99999999999999999999) at "
               "offset 22"},
        BadSql{"FetchFirstOutOfRange",
               "SELECT * FROM t FETCH FIRST 99999999999999999999 ROWS ONLY",
               "row count out of range, found num(99999999999999999999) at "
               "offset 28"}));

}  // namespace
}  // namespace cote

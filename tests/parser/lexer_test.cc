#include "parser/lexer.h"

#include <gtest/gtest.h>

namespace cote {
namespace {

TokenList Lex(const std::string& s) {
  Lexer lexer(s);
  auto tokens = lexer.Tokenize();
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  return tokens.ok() ? std::move(tokens).value() : TokenList{};
}

TEST(LexerTest, EmptyInput) {
  auto tokens = Lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto tokens = Lex("SELECT foo _bar b2z");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].keyword, Keyword::kSelect);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[1].text, "foo");
  EXPECT_EQ(tokens[2].text, "_bar");
  EXPECT_EQ(tokens[3].text, "b2z");
}

TEST(LexerTest, KeywordsClassifiedWholeTokenIgnoringCase) {
  auto tokens = Lex("select SeLeCt FROM fromage orders order_date By by_region "
                    "distinct distincts date selecd");
  ASSERT_EQ(tokens.size(), 13u);
  EXPECT_EQ(tokens[0].keyword, Keyword::kSelect);
  EXPECT_EQ(tokens[1].keyword, Keyword::kSelect);
  EXPECT_EQ(tokens[2].keyword, Keyword::kFrom);
  EXPECT_EQ(tokens[3].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[4].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[5].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[6].keyword, Keyword::kBy);
  EXPECT_EQ(tokens[7].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[8].keyword, Keyword::kDistinct);
  EXPECT_EQ(tokens[9].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[10].keyword, Keyword::kDate);
  EXPECT_EQ(tokens[11].keyword, Keyword::kNone);  // near miss
  EXPECT_TRUE(tokens[0].IsReserved());
  EXPECT_FALSE(tokens[10].IsReserved());  // DATE starts a literal
  EXPECT_FALSE(tokens[3].IsReserved());
}

TEST(LexerTest, OnlyIdentifiersCarryKeywords) {
  auto tokens = Lex("'select' 42 ( select");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[1].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[2].keyword, Keyword::kNone);
  EXPECT_EQ(tokens[3].keyword, Keyword::kSelect);
  EXPECT_EQ(tokens[4].keyword, Keyword::kNone);
}

TEST(LexerTest, KeywordNamesRoundTrip) {
  for (int k = 1; k <= static_cast<int>(Keyword::kDate); ++k) {
    const Keyword kw = static_cast<Keyword>(k);
    EXPECT_EQ(ClassifyKeyword(KeywordName(kw)), kw) << KeywordName(kw);
  }
  EXPECT_STREQ(KeywordName(Keyword::kNone), "");
  EXPECT_EQ(ClassifyKeyword(""), Keyword::kNone);
}

TEST(LexerTest, Numbers) {
  auto tokens = Lex("42 3.14 .5");
  EXPECT_EQ(tokens[0].text, "42");
  EXPECT_EQ(tokens[1].text, "3.14");
  EXPECT_EQ(tokens[2].text, ".5");
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
}

TEST(LexerTest, Strings) {
  auto tokens = Lex("'hello' 'it''s' '%BRASS'");
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].text, "it's");
  EXPECT_EQ(tokens[2].text, "%BRASS");
  EXPECT_EQ(tokens[0].type, TokenType::kString);
}

TEST(LexerTest, Symbols) {
  auto tokens = Lex("( ) , . * = < > <= >= <> != ;");
  EXPECT_TRUE(tokens[0].IsSymbol("("));
  EXPECT_TRUE(tokens[8].IsSymbol("<="));
  EXPECT_TRUE(tokens[9].IsSymbol(">="));
  EXPECT_TRUE(tokens[10].IsSymbol("<>"));
  EXPECT_TRUE(tokens[11].IsSymbol("<>"));  // != normalized
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Lex("a -- comment to end\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, OffsetsTracked) {
  auto tokens = Lex("ab cd");
  EXPECT_EQ(tokens[0].offset, 0);
  EXPECT_EQ(tokens[1].offset, 3);
}

TEST(LexerTest, UnterminatedStringFails) {
  Lexer lexer("'oops");
  EXPECT_EQ(lexer.Tokenize().status().code(), StatusCode::kParseError);
}

TEST(LexerTest, UnknownCharacterFails) {
  Lexer lexer("a @ b");
  EXPECT_EQ(lexer.Tokenize().status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace cote

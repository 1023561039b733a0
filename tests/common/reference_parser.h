#ifndef COTE_TESTS_COMMON_REFERENCE_PARSER_H_
#define COTE_TESTS_COMMON_REFERENCE_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "parser/ast.h"
#include "parser/token.h"

/// \file
/// Reference implementation of the SQL lexer and parser: the version in
/// which every token owns a std::string and every sub-parser returns its
/// node by value. It is kept test-only, as the oracle that the zero-copy
/// lexer and in-place parser in src/parser/ must match token for token,
/// AST field for field and error message for error message
/// (tests/parser/parser_oracle_test.cc). It reads FETCH FIRST / LIMIT
/// counts with std::atoll, as that version did.

namespace cote {
namespace reference {

/// A lexed token that owns its text.
struct Token {
  TokenType type = TokenType::kEnd;
  Keyword keyword = Keyword::kNone;
  std::string text;
  int offset = 0;

  bool IsSymbol(const char* s) const {
    return type == TokenType::kSymbol && text == s;
  }
  bool IsKeyword(Keyword kw) const { return keyword == kw; }
  bool IsReserved() const {
    return keyword != Keyword::kNone && keyword != Keyword::kDate;
  }

  std::string ToString() const;
};

/// The keyword an identifier spells (std::tolower per byte), or kNone.
Keyword ClassifyKeyword(std::string_view ident);

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  StatusOr<std::vector<Token>> Tokenize();

 private:
  std::string_view input_;
};

class Parser {
 public:
  static StatusOr<ast::SelectStatement> Parse(const std::string& sql);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<ast::SelectStatement> ParseSelect(bool top_level);
  Status ParseSelectList(ast::SelectStatement* stmt);
  Status ParseFromList(ast::SelectStatement* stmt);
  StatusOr<ast::TableRef> ParseTableRef();
  StatusOr<std::vector<ast::Predicate>> ParseConjunction();
  StatusOr<ast::Predicate> ParsePredicate();
  StatusOr<ast::ColumnName> ParseColumn();
  StatusOr<ast::Literal> ParseLiteral();

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }
  bool AcceptKeyword(Keyword kw);
  bool AcceptSymbol(const char* sym);
  Status ExpectKeyword(Keyword kw);
  Status ExpectSymbol(const char* sym);
  Status ErrorAt(const Token& tok, const std::string& what) const;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace reference
}  // namespace cote

#endif  // COTE_TESTS_COMMON_REFERENCE_PARSER_H_

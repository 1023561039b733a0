#ifndef COTE_PARSER_PARSER_H_
#define COTE_PARSER_PARSER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "parser/ast.h"
#include "parser/lexer.h"
#include "parser/token.h"

namespace cote {

/// \brief Recursive-descent parser for the supported SQL subset.
///
/// Grammar (case-insensitive keywords):
///
///   select    := SELECT [DISTINCT] select_list FROM from_list
///                [WHERE conj] [GROUP BY columns] [ORDER BY order_items]
///                [FETCH FIRST n ROWS ONLY | LIMIT n] [;]
///   select_list := '*' | item (',' item)*
///   item      := column [AS ident]
///              | (COUNT|SUM|AVG|MIN|MAX) '(' (column | '*') ')' [AS ident]
///   from_list := from_item (',' from_item)*
///   from_item := table_ref (join_clause)*
///   join_clause := [LEFT [OUTER] | INNER] JOIN table_ref ON conj
///   table_ref := ident [[AS] ident]
///   conj      := pred (AND pred)*
///   pred      := column '=' column
///              | column cmp literal
///              | column BETWEEN literal AND literal
///              | column LIKE string
///   column    := ident | ident '.' ident
///
/// Only the join graph, filters, GROUP BY and ORDER BY matter to the
/// optimizer; expressions beyond the grammar are rejected with a
/// ParseError that points at the offending token.
class Parser {
 public:
  /// Parses one SELECT statement from `sql`.
  static StatusOr<ast::SelectStatement> Parse(const std::string& sql);

 private:
  explicit Parser(TokenList tokens) : tokens_(std::move(tokens)) {}

  // Each sub-parser fills the node its caller owns.
  Status ParseSelect(bool top_level, ast::SelectStatement* stmt);
  Status ParseSelectList(ast::SelectStatement* stmt);
  Status ParseFromList(ast::SelectStatement* stmt);
  Status ParseTableRef(ast::TableRef* ref);
  Status ParseConjunction(std::vector<ast::Predicate>* preds);
  Status ParsePredicate(ast::Predicate* pred);
  Status ParseColumn(ast::ColumnName* col);
  Status ParseLiteral(ast::Literal* lit);
  Status ParseRowCount(const char* clause, long long* count);

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }
  bool AcceptKeyword(Keyword kw);
  bool AcceptSymbol(const char* sym);
  Status ExpectKeyword(Keyword kw);
  Status ExpectSymbol(const char* sym);
  Status ErrorAt(const Token& tok, const std::string& what) const;

  TokenList tokens_;
  size_t pos_ = 0;
};

}  // namespace cote

#endif  // COTE_PARSER_PARSER_H_

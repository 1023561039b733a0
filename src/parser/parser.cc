#include "parser/parser.h"

#include <cstdlib>
#include <memory>

#include "common/str_util.h"
#include "parser/lexer.h"

namespace cote {

StatusOr<ast::SelectStatement> Parser::Parse(const std::string& sql) {
  Lexer lexer(sql);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseSelect(/*top_level=*/true);
}

bool Parser::AcceptKeyword(Keyword kw) {
  if (Peek().IsKeyword(kw)) {
    Next();
    return true;
  }
  return false;
}

bool Parser::AcceptSymbol(const char* sym) {
  if (Peek().IsSymbol(sym)) {
    Next();
    return true;
  }
  return false;
}

Status Parser::ExpectKeyword(Keyword kw) {
  if (!AcceptKeyword(kw)) {
    return ErrorAt(Peek(), StrFormat("expected %s", KeywordName(kw)));
  }
  return Status::OK();
}

Status Parser::ExpectSymbol(const char* sym) {
  if (!AcceptSymbol(sym)) {
    return ErrorAt(Peek(), StrFormat("expected '%s'", sym));
  }
  return Status::OK();
}

Status Parser::ErrorAt(const Token& tok, const std::string& what) const {
  return Status::ParseError(StrFormat("%s, found %s at offset %d",
                                      what.c_str(), tok.ToString().c_str(),
                                      tok.offset));
}

StatusOr<ast::SelectStatement> Parser::ParseSelect(bool top_level) {
  COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kSelect));
  ast::SelectStatement stmt;
  stmt.distinct = AcceptKeyword(Keyword::kDistinct);
  COTE_RETURN_NOT_OK(ParseSelectList(&stmt));
  COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kFrom));
  COTE_RETURN_NOT_OK(ParseFromList(&stmt));
  if (AcceptKeyword(Keyword::kWhere)) {
    auto conj = ParseConjunction();
    if (!conj.ok()) return conj.status();
    stmt.where = std::move(conj).value();
  }
  if (AcceptKeyword(Keyword::kGroup)) {
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
    do {
      auto col = ParseColumn();
      if (!col.ok()) return col.status();
      stmt.group_by.push_back(std::move(col).value());
    } while (AcceptSymbol(","));
  }
  if (AcceptKeyword(Keyword::kOrder)) {
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
    do {
      auto col = ParseColumn();
      if (!col.ok()) return col.status();
      ast::OrderItem item;
      item.column = std::move(col).value();
      if (AcceptKeyword(Keyword::kDesc)) {
        item.descending = true;
      } else {
        AcceptKeyword(Keyword::kAsc);
      }
      stmt.order_by.push_back(std::move(item));
    } while (AcceptSymbol(","));
  }
  // FETCH FIRST n ROWS ONLY | LIMIT n.
  if (AcceptKeyword(Keyword::kFetch)) {
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kFirst));
    const Token& n = Peek();
    if (n.type != TokenType::kNumber) {
      return ErrorAt(n, "expected row count after FETCH FIRST");
    }
    stmt.fetch_first = std::atoll(Next().text.c_str());
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kRows));
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kOnly));
  } else if (AcceptKeyword(Keyword::kLimit)) {
    const Token& n = Peek();
    if (n.type != TokenType::kNumber) {
      return ErrorAt(n, "expected row count after LIMIT");
    }
    stmt.fetch_first = std::atoll(Next().text.c_str());
  }
  if (top_level) {
    AcceptSymbol(";");
    if (Peek().type != TokenType::kEnd) {
      return ErrorAt(Peek(), "expected end of statement");
    }
  }
  return stmt;
}

Status Parser::ParseSelectList(ast::SelectStatement* stmt) {
  if (AcceptSymbol("*")) {
    ast::SelectItem item;
    item.star = true;
    stmt->select_list.push_back(item);
    return Status::OK();
  }
  do {
    ast::SelectItem item;
    auto agg = ast::AggFunc::kNone;
    switch (Peek().keyword) {
      case Keyword::kCount:
        agg = ast::AggFunc::kCount;
        break;
      case Keyword::kSum:
        agg = ast::AggFunc::kSum;
        break;
      case Keyword::kAvg:
        agg = ast::AggFunc::kAvg;
        break;
      case Keyword::kMin:
        agg = ast::AggFunc::kMin;
        break;
      case Keyword::kMax:
        agg = ast::AggFunc::kMax;
        break;
      default:
        break;
    }
    if (agg != ast::AggFunc::kNone) {
      Next();
      item.agg = agg;
      COTE_RETURN_NOT_OK(ExpectSymbol("("));
      if (AcceptSymbol("*")) {
        item.star = true;
      } else {
        auto col = ParseColumn();
        if (!col.ok()) return col.status();
        item.column = std::move(col).value();
      }
      COTE_RETURN_NOT_OK(ExpectSymbol(")"));
    } else {
      auto col = ParseColumn();
      if (!col.ok()) return col.status();
      item.column = std::move(col).value();
    }
    if (AcceptKeyword(Keyword::kAs)) {
      const Token& alias = Peek();
      if (alias.type != TokenType::kIdent) {
        return ErrorAt(alias, "expected output alias");
      }
      item.output_alias = Next().text;
    }
    stmt->select_list.push_back(std::move(item));
  } while (AcceptSymbol(","));
  return Status::OK();
}

StatusOr<ast::TableRef> Parser::ParseTableRef() {
  const Token& name = Peek();
  if (name.type != TokenType::kIdent || name.IsReserved()) {
    return Status(StatusCode::kParseError,
                  StrFormat("expected table name, found %s at offset %d",
                            name.ToString().c_str(), name.offset));
  }
  ast::TableRef ref;
  ref.table_name = Next().text;
  if (AcceptKeyword(Keyword::kAs)) {
    const Token& alias = Peek();
    if (alias.type != TokenType::kIdent) {
      return ErrorAt(alias, "expected alias after AS");
    }
    ref.alias = Next().text;
  } else if (Peek().type == TokenType::kIdent && !Peek().IsReserved()) {
    ref.alias = Next().text;
  }
  return ref;
}

Status Parser::ParseFromList(ast::SelectStatement* stmt) {
  do {
    auto base = ParseTableRef();
    if (!base.ok()) return base.status();
    ast::FromItem item;
    item.table = std::move(base).value();
    while (true) {
      bool left_outer = false;
      if (Peek().IsKeyword(Keyword::kLeft)) {
        Next();
        AcceptKeyword(Keyword::kOuter);
        left_outer = true;
        COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kJoin));
      } else if (Peek().IsKeyword(Keyword::kInner)) {
        Next();
        COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kJoin));
      } else if (Peek().IsKeyword(Keyword::kJoin)) {
        Next();
      } else {
        break;
      }
      auto ref = ParseTableRef();
      if (!ref.ok()) return ref.status();
      COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kOn));
      auto conj = ParseConjunction();
      if (!conj.ok()) return conj.status();
      ast::JoinClause jc;
      jc.left_outer = left_outer;
      jc.table = std::move(ref).value();
      jc.on = std::move(conj).value();
      item.joins.push_back(std::move(jc));
    }
    stmt->from.push_back(std::move(item));
  } while (AcceptSymbol(","));
  return Status::OK();
}

StatusOr<std::vector<ast::Predicate>> Parser::ParseConjunction() {
  std::vector<ast::Predicate> preds;
  do {
    auto p = ParsePredicate();
    if (!p.ok()) return p.status();
    preds.push_back(std::move(p).value());
  } while (AcceptKeyword(Keyword::kAnd));
  return preds;
}

StatusOr<ast::Predicate> Parser::ParsePredicate() {
  auto left = ParseColumn();
  if (!left.ok()) return left.status();
  ast::Predicate pred;
  pred.left = std::move(left).value();

  if (AcceptKeyword(Keyword::kBetween)) {
    pred.op = ast::CompareOp::kBetween;
    auto lo = ParseLiteral();
    if (!lo.ok()) return lo.status();
    pred.literal = std::move(lo).value();
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kAnd));
    auto hi = ParseLiteral();
    if (!hi.ok()) return hi.status();
    pred.literal2 = std::move(hi).value();
    return pred;
  }
  if (AcceptKeyword(Keyword::kLike)) {
    pred.op = ast::CompareOp::kLike;
    auto lit = ParseLiteral();
    if (!lit.ok()) return lit.status();
    if (lit.value().kind != ast::Literal::Kind::kString) {
      return ErrorAt(Peek(), "LIKE requires a string pattern");
    }
    pred.literal = std::move(lit).value();
    return pred;
  }

  const Token& op = Peek();
  ast::CompareOp cmp;
  if (op.IsSymbol("=")) cmp = ast::CompareOp::kEq;
  else if (op.IsSymbol("<>")) cmp = ast::CompareOp::kNe;
  else if (op.IsSymbol("<")) cmp = ast::CompareOp::kLt;
  else if (op.IsSymbol("<=")) cmp = ast::CompareOp::kLe;
  else if (op.IsSymbol(">")) cmp = ast::CompareOp::kGt;
  else if (op.IsSymbol(">=")) cmp = ast::CompareOp::kGe;
  else return ErrorAt(op, "expected comparison operator");
  Next();
  pred.op = cmp;

  // '(' SELECT ... ')' on the right side is an uncorrelated scalar
  // subquery: a separate query block.
  if (Peek().IsSymbol("(") &&
      tokens_[pos_ + 1].IsKeyword(Keyword::kSelect)) {
    Next();  // consume '('
    auto sub = ParseSelect(/*top_level=*/false);
    if (!sub.ok()) return sub.status();
    COTE_RETURN_NOT_OK(ExpectSymbol(")"));
    pred.subquery =
        std::make_shared<ast::SelectStatement>(std::move(sub).value());
    return pred;
  }

  // Column = column is a join predicate; otherwise expect a literal
  // (DATE '...'-style literals start with the non-reserved ident DATE).
  const Token& rhs = Peek();
  if (rhs.type == TokenType::kIdent && !rhs.IsReserved() &&
      !rhs.IsKeyword(Keyword::kDate)) {
    auto right = ParseColumn();
    if (!right.ok()) return right.status();
    if (cmp != ast::CompareOp::kEq) {
      return ErrorAt(rhs, "only equality join predicates are supported");
    }
    pred.is_join = true;
    pred.right = std::move(right).value();
    return pred;
  }
  auto lit = ParseLiteral();
  if (!lit.ok()) return lit.status();
  pred.literal = std::move(lit).value();
  return pred;
}

StatusOr<ast::ColumnName> Parser::ParseColumn() {
  const Token& first = Peek();
  if (first.type != TokenType::kIdent || first.IsReserved()) {
    return Status(StatusCode::kParseError,
                  StrFormat("expected column, found %s at offset %d",
                            first.ToString().c_str(), first.offset));
  }
  ast::ColumnName col;
  std::string a = Next().text;
  if (AcceptSymbol(".")) {
    const Token& second = Peek();
    if (second.type != TokenType::kIdent) {
      return ErrorAt(second, "expected column name after '.'");
    }
    col.qualifier = std::move(a);
    col.column = Next().text;
  } else {
    col.column = std::move(a);
  }
  return col;
}

StatusOr<ast::Literal> Parser::ParseLiteral() {
  const Token& tok = Peek();
  ast::Literal lit;
  if (tok.type == TokenType::kNumber) {
    lit.kind = ast::Literal::Kind::kNumber;
    lit.text = Next().text;
    return lit;
  }
  if (tok.type == TokenType::kString) {
    lit.kind = ast::Literal::Kind::kString;
    lit.text = Next().text;
    return lit;
  }
  // DATE 'yyyy-mm-dd' literals.
  if (tok.IsKeyword(Keyword::kDate)) {
    Next();
    const Token& str = Peek();
    if (str.type != TokenType::kString) {
      return ErrorAt(str, "expected string after DATE");
    }
    lit.kind = ast::Literal::Kind::kString;
    lit.text = Next().text;
    return lit;
  }
  return ErrorAt(tok, "expected literal");
}

}  // namespace cote

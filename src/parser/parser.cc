#include "parser/parser.h"

#include <charconv>
#include <memory>
#include <system_error>

#include "common/str_util.h"

namespace cote {

StatusOr<ast::SelectStatement> Parser::Parse(const std::string& sql) {
  auto tokens = Lexer(sql).Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  ast::SelectStatement stmt;
  COTE_RETURN_NOT_OK(parser.ParseSelect(/*top_level=*/true, &stmt));
  return stmt;
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

Status Parser::ParseSelect(bool top_level, ast::SelectStatement* stmt) {
  COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kSelect));
  stmt->distinct = AcceptKeyword(Keyword::kDistinct);
  COTE_RETURN_NOT_OK(ParseSelectList(stmt));
  COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kFrom));
  COTE_RETURN_NOT_OK(ParseFromList(stmt));
  if (AcceptKeyword(Keyword::kWhere)) {
    COTE_RETURN_NOT_OK(ParseConjunction(&stmt->where));
  }
  if (AcceptKeyword(Keyword::kGroup)) {
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
    do {
      COTE_RETURN_NOT_OK(ParseColumn(&stmt->group_by.emplace_back()));
    } while (AcceptSymbol(","));
  }
  if (AcceptKeyword(Keyword::kOrder)) {
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
    do {
      ast::OrderItem& item = stmt->order_by.emplace_back();
      COTE_RETURN_NOT_OK(ParseColumn(&item.column));
      if (AcceptKeyword(Keyword::kDesc)) {
        item.descending = true;
      } else {
        AcceptKeyword(Keyword::kAsc);
      }
    } while (AcceptSymbol(","));
  }
  // FETCH FIRST n ROWS ONLY | LIMIT n.
  if (AcceptKeyword(Keyword::kFetch)) {
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kFirst));
    COTE_RETURN_NOT_OK(ParseRowCount("FETCH FIRST", &stmt->fetch_first));
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kRows));
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kOnly));
  } else if (AcceptKeyword(Keyword::kLimit)) {
    COTE_RETURN_NOT_OK(ParseRowCount("LIMIT", &stmt->fetch_first));
  }
  if (top_level) {
    AcceptSymbol(";");
    if (Peek().type != TokenType::kEnd) {
      return ErrorAt(Peek(), "expected end of statement");
    }
  }
  return Status::OK();
}

Status Parser::ParseRowCount(const char* clause, long long* count) {
  const Token& n = Peek();
  if (n.type != TokenType::kNumber) {
    return ErrorAt(n, StrFormat("expected row count after %s", clause));
  }
  // The count is the number's leading digits (none, as in ".5", reads 0);
  // a count that does not fit a long long is rejected.
  long long value = 0;
  const std::from_chars_result read =
      std::from_chars(n.text.data(), n.text.data() + n.text.size(), value);
  if (read.ec == std::errc::result_out_of_range) {
    return ErrorAt(n, "row count out of range");
  }
  *count = value;
  Next();
  return Status::OK();
}

Status Parser::ParseSelectList(ast::SelectStatement* stmt) {
  if (AcceptSymbol("*")) {
    stmt->select_list.emplace_back().star = true;
    return Status::OK();
  }
  do {
    ast::SelectItem& item = stmt->select_list.emplace_back();
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
        COTE_RETURN_NOT_OK(ParseColumn(&item.column));
      }
      COTE_RETURN_NOT_OK(ExpectSymbol(")"));
    } else {
      COTE_RETURN_NOT_OK(ParseColumn(&item.column));
    }
    if (AcceptKeyword(Keyword::kAs)) {
      const Token& alias = Peek();
      if (alias.type != TokenType::kIdent) {
        return ErrorAt(alias, "expected output alias");
      }
      item.output_alias.assign(Next().text);
    }
  } while (AcceptSymbol(","));
  return Status::OK();
}

Status Parser::ParseTableRef(ast::TableRef* ref) {
  const Token& name = Peek();
  if (name.type != TokenType::kIdent || name.IsReserved()) {
    return Status(StatusCode::kParseError,
                  StrFormat("expected table name, found %s at offset %d",
                            name.ToString().c_str(), name.offset));
  }
  ref->table_name.assign(Next().text);
  if (AcceptKeyword(Keyword::kAs)) {
    const Token& alias = Peek();
    if (alias.type != TokenType::kIdent) {
      return ErrorAt(alias, "expected alias after AS");
    }
    ref->alias.assign(Next().text);
  } else if (Peek().type == TokenType::kIdent && !Peek().IsReserved()) {
    ref->alias.assign(Next().text);
  }
  return Status::OK();
}

Status Parser::ParseFromList(ast::SelectStatement* stmt) {
  do {
    ast::FromItem& item = stmt->from.emplace_back();
    COTE_RETURN_NOT_OK(ParseTableRef(&item.table));
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
      ast::JoinClause& jc = item.joins.emplace_back();
      jc.left_outer = left_outer;
      COTE_RETURN_NOT_OK(ParseTableRef(&jc.table));
      COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kOn));
      COTE_RETURN_NOT_OK(ParseConjunction(&jc.on));
    }
  } while (AcceptSymbol(","));
  return Status::OK();
}

Status Parser::ParseConjunction(std::vector<ast::Predicate>* preds) {
  do {
    COTE_RETURN_NOT_OK(ParsePredicate(&preds->emplace_back()));
  } while (AcceptKeyword(Keyword::kAnd));
  return Status::OK();
}

Status Parser::ParsePredicate(ast::Predicate* pred) {
  COTE_RETURN_NOT_OK(ParseColumn(&pred->left));

  if (AcceptKeyword(Keyword::kBetween)) {
    pred->op = ast::CompareOp::kBetween;
    COTE_RETURN_NOT_OK(ParseLiteral(&pred->literal));
    COTE_RETURN_NOT_OK(ExpectKeyword(Keyword::kAnd));
    return ParseLiteral(&pred->literal2);
  }
  if (AcceptKeyword(Keyword::kLike)) {
    pred->op = ast::CompareOp::kLike;
    COTE_RETURN_NOT_OK(ParseLiteral(&pred->literal));
    if (pred->literal.kind != ast::Literal::Kind::kString) {
      return ErrorAt(Peek(), "LIKE requires a string pattern");
    }
    return Status::OK();
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
  pred->op = cmp;

  // '(' SELECT ... ')' on the right side is an uncorrelated scalar
  // subquery: a separate query block.
  if (Peek().IsSymbol("(") &&
      tokens_[pos_ + 1].IsKeyword(Keyword::kSelect)) {
    Next();  // consume '('
    pred->subquery = std::make_shared<ast::SelectStatement>();
    COTE_RETURN_NOT_OK(ParseSelect(/*top_level=*/false, pred->subquery.get()));
    return ExpectSymbol(")");
  }

  // Column = column is a join predicate; otherwise expect a literal
  // (DATE '...'-style literals start with the non-reserved ident DATE).
  const Token& rhs = Peek();
  if (rhs.type == TokenType::kIdent && !rhs.IsReserved() &&
      !rhs.IsKeyword(Keyword::kDate)) {
    COTE_RETURN_NOT_OK(ParseColumn(&pred->right));
    if (cmp != ast::CompareOp::kEq) {
      return ErrorAt(rhs, "only equality join predicates are supported");
    }
    pred->is_join = true;
    return Status::OK();
  }
  return ParseLiteral(&pred->literal);
}

Status Parser::ParseColumn(ast::ColumnName* col) {
  const Token& first = Peek();
  if (first.type != TokenType::kIdent || first.IsReserved()) {
    return Status(StatusCode::kParseError,
                  StrFormat("expected column, found %s at offset %d",
                            first.ToString().c_str(), first.offset));
  }
  Next();
  if (AcceptSymbol(".")) {
    const Token& second = Peek();
    if (second.type != TokenType::kIdent) {
      return ErrorAt(second, "expected column name after '.'");
    }
    col->qualifier.assign(first.text);
    col->column.assign(Next().text);
  } else {
    col->column.assign(first.text);
  }
  return Status::OK();
}

Status Parser::ParseLiteral(ast::Literal* lit) {
  const Token& tok = Peek();
  if (tok.type == TokenType::kNumber) {
    lit->kind = ast::Literal::Kind::kNumber;
    lit->text.assign(Next().text);
    return Status::OK();
  }
  if (tok.type == TokenType::kString) {
    lit->kind = ast::Literal::Kind::kString;
    lit->text.assign(Next().text);
    return Status::OK();
  }
  // DATE 'yyyy-mm-dd' literals.
  if (tok.IsKeyword(Keyword::kDate)) {
    Next();
    const Token& str = Peek();
    if (str.type != TokenType::kString) {
      return ErrorAt(str, "expected string after DATE");
    }
    lit->kind = ast::Literal::Kind::kString;
    lit->text.assign(Next().text);
    return Status::OK();
  }
  return ErrorAt(tok, "expected literal");
}

}  // namespace cote

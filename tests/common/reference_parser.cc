// The reference lexer and parser (see reference_parser.h): the code the
// zero-copy front end in src/parser/ replaced, unchanged but for its
// namespace and the name of KeywordSpelling (KeywordName in src/parser/,
// which argument-dependent lookup would make ambiguous here).
#include "tests/common/reference_parser.h"

#include <cctype>
#include <cstdlib>
#include <iterator>
#include <memory>

#include "common/str_util.h"

namespace cote {
namespace reference {

namespace {

/// Spellings indexed by Keyword; entry 0 is Keyword::kNone.
constexpr std::string_view kKeywordNames[] = {
    "",         "select",   "from",     "where",    "group",    "order",
    "by",       "and",      "join",     "left",     "outer",    "inner",
    "on",       "as",       "distinct", "count",    "sum",      "avg",
    "min",      "max",      "like",     "between",  "fetch",    "first",
    "rows",     "only",     "limit",    "desc",     "asc",      "date",
};
static_assert(std::size(kKeywordNames) ==
                  static_cast<size_t>(Keyword::kDate) + 1,
              "one spelling per Keyword");

constexpr size_t kMaxKeywordLength = 8;  // "distinct", "between"

}  // namespace

const char* KeywordSpelling(Keyword kw) {
  // Every entry is a string literal, so data() is NUL-terminated.
  return kKeywordNames[static_cast<size_t>(kw)].data();
}

Keyword ClassifyKeyword(std::string_view ident) {
  if (ident.size() > kMaxKeywordLength) return Keyword::kNone;
  char lower[kMaxKeywordLength];
  for (size_t i = 0; i < ident.size(); ++i) {
    lower[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(ident[i])));
  }
  const std::string_view folded(lower, ident.size());
  for (size_t k = 1; k < std::size(kKeywordNames); ++k) {
    if (kKeywordNames[k] == folded) return static_cast<Keyword>(k);
  }
  return Keyword::kNone;
}

std::string Token::ToString() const {
  switch (type) {
    case TokenType::kIdent:
      return "ident(" + text + ")";
    case TokenType::kNumber:
      return "num(" + text + ")";
    case TokenType::kString:
      return "str('" + text + "')";
    case TokenType::kSymbol:
      return "sym(" + text + ")";
    case TokenType::kEnd:
      return "<end>";
  }
  return "?";
}

StatusOr<std::vector<Token>> Lexer::Tokenize() {
  std::vector<Token> tokens;
  const std::string_view s = input_;
  size_t i = 0;
  const size_t n = s.size();
  while (i < n) {
    char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && s[i + 1] == '-') {
      while (i < n && s[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.offset = static_cast<int>(i);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(s[j])) ||
                       s[j] == '_')) {
        ++j;
      }
      tok.type = TokenType::kIdent;
      tok.text.assign(s.substr(i, j - i));
      tok.keyword = ClassifyKeyword(s.substr(i, j - i));
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(s[i + 1])))) {
      size_t j = i;
      bool seen_dot = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(s[j])) ||
                       (s[j] == '.' && !seen_dot))) {
        if (s[j] == '.') seen_dot = true;
        ++j;
      }
      tok.type = TokenType::kNumber;
      tok.text.assign(s.substr(i, j - i));
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      std::string text;
      bool closed = false;
      while (j < n) {
        if (s[j] == '\'') {
          if (j + 1 < n && s[j + 1] == '\'') {  // escaped quote
            text += '\'';
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        text += s[j];
        ++j;
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %zu", i));
      }
      tok.type = TokenType::kString;
      tok.text = std::move(text);
      i = j;
    } else {
      // Multi-char operators first.
      static constexpr std::string_view kTwoChar[] = {"<=", ">=", "<>", "!="};
      const std::string_view two = s.substr(i, 2);
      bool matched = false;
      for (std::string_view op : kTwoChar) {
        if (two == op) {
          tok.type = TokenType::kSymbol;
          tok.text.assign(two == "!=" ? std::string_view("<>") : two);
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        static constexpr std::string_view kOneChar = "(),.*=<>+-/;";
        if (kOneChar.find(c) == std::string_view::npos) {
          return Status::ParseError(
              StrFormat("unexpected character '%c' at offset %zu", c, i));
        }
        tok.type = TokenType::kSymbol;
        tok.text = std::string(1, c);
        ++i;
      }
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.offset = static_cast<int>(n);
  tokens.push_back(end);
  return tokens;
}

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
    return ErrorAt(Peek(), StrFormat("expected %s", KeywordSpelling(kw)));
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

}  // namespace reference
}  // namespace cote

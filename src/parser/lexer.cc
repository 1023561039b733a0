#include "parser/lexer.h"

#include <cctype>
#include <iterator>

#include "common/str_util.h"

namespace cote {

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

const char* KeywordName(Keyword kw) {
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

}  // namespace cote

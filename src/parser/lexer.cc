#include "parser/lexer.h"

#include <array>
#include <cstring>
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

constexpr size_t kMaxKeywordLength = 8;  // "distinct"

/// The keywords of one spelling length: ClassifyKeyword compares an
/// identifier only with the spellings of its own length.
struct KeywordsOfLength {
  size_t count = 0;
  Keyword keywords[9] = {};  // the most of one length: 9 of length 5
};

constexpr std::array<KeywordsOfLength, kMaxKeywordLength + 1> kByLength = [] {
  std::array<KeywordsOfLength, kMaxKeywordLength + 1> by_length{};
  for (size_t k = 1; k < std::size(kKeywordNames); ++k) {
    KeywordsOfLength& bucket = by_length[kKeywordNames[k].size()];
    bucket.keywords[bucket.count++] = static_cast<Keyword>(k);
  }
  return by_length;
}();

/// ASCII character classes: the C locale's isspace, isalpha and isdigit,
/// whatever the process locale. No byte >= 0x80 is in any class.
enum CharClass : uint8_t {
  kOther = 0,
  kSpace = 1,       ///< ' ' \t \n \v \f \r
  kIdentStart = 2,  ///< a letter or '_'
  kDigit = 3,
  kSymbol = 4,      ///< a one-character symbol: ( ) , . * = < > + - / ;
};

constexpr std::array<CharClass, 256> kCharClass = [] {
  std::array<CharClass, 256> classes{};
  for (unsigned char c : std::string_view(" \t\n\v\f\r")) classes[c] = kSpace;
  for (size_t c = 'a'; c <= 'z'; ++c) {
    classes[c] = kIdentStart;
    classes[c - 'a' + 'A'] = kIdentStart;
  }
  classes['_'] = kIdentStart;
  for (size_t c = '0'; c <= '9'; ++c) classes[c] = kDigit;
  for (unsigned char c : std::string_view("(),.*=<>+-/;")) classes[c] = kSymbol;
  return classes;
}();

CharClass ClassOf(char c) { return kCharClass[static_cast<unsigned char>(c)]; }

bool IsIdentChar(char c) {
  const CharClass cls = ClassOf(c);
  return cls == kIdentStart || cls == kDigit;
}

char FoldCase(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

const char* KeywordName(Keyword kw) {
  // Every entry is a string literal, so data() is NUL-terminated.
  return kKeywordNames[static_cast<size_t>(kw)].data();
}

Keyword ClassifyKeyword(std::string_view ident) {
  if (ident.size() > kMaxKeywordLength) return Keyword::kNone;
  const KeywordsOfLength& bucket = kByLength[ident.size()];
  for (size_t b = 0; b < bucket.count; ++b) {
    const std::string_view name =
        kKeywordNames[static_cast<size_t>(bucket.keywords[b])];
    size_t k = 0;
    while (k < name.size() && FoldCase(ident[k]) == name[k]) ++k;
    if (k == name.size()) return bucket.keywords[b];
  }
  return Keyword::kNone;
}

std::string Token::ToString() const {
  // Opening and closing text by TokenType; kEnd prints "<end>".
  static constexpr const char* kOpen[] = {"ident(", "num(", "str('", "sym("};
  static_assert(std::size(kOpen) == static_cast<size_t>(TokenType::kEnd));
  if (type == TokenType::kEnd) return "<end>";
  std::string out(kOpen[static_cast<size_t>(type)]);
  out.append(text).append(type == TokenType::kString ? "')" : ")");
  return out;
}

StatusOr<TokenList> Lexer::Tokenize() {
  const size_t n = input_.size();
  TokenList list;
  if (n > 0) {
    list.buffer_.reset(new char[n]);
    std::memcpy(list.buffer_.get(), input_.data(), n);
  }
  // Every token but the final kEnd spans at least one byte.
  list.tokens_.reserve(n + 1);
  char* const s = list.buffer_.get();
  size_t i = 0;
  while (i < n) {
    const char c = s[i];
    const CharClass cls = ClassOf(c);
    if (cls == kSpace) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && s[i + 1] == '-') {
      while (i < n && s[i] != '\n') ++i;
      continue;
    }
    Token& tok = list.tokens_.emplace_back();
    tok.offset = static_cast<int>(i);
    size_t j = i + 1;
    if (cls == kIdentStart) {
      while (j < n && IsIdentChar(s[j])) ++j;
      tok.type = TokenType::kIdent;
      tok.text = std::string_view(s + i, j - i);
      tok.keyword = ClassifyKeyword(tok.text);
    } else if (cls == kDigit ||
               (c == '.' && j < n && ClassOf(s[j]) == kDigit)) {
      bool seen_dot = c == '.';
      while (j < n && (ClassOf(s[j]) == kDigit || (s[j] == '.' && !seen_dot))) {
        if (s[j] == '.') seen_dot = true;
        ++j;
      }
      tok.type = TokenType::kNumber;
      tok.text = std::string_view(s + i, j - i);
    } else if (c == '\'') {
      // Unescape in place: the write cursor `w` never passes the read
      // cursor `j`, so the contents end inside the literal's own span.
      size_t w = j;
      bool closed = false;
      while (j < n) {
        if (s[j] == '\'') {
          if (j + 1 < n && s[j + 1] == '\'') {  // escaped quote
            s[w++] = '\'';
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        s[w++] = s[j++];
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %zu", i));
      }
      tok.type = TokenType::kString;
      tok.text = std::string_view(s + i + 1, w - i - 1);
    } else {
      // Multi-char operators first: <= >= <> and != (which reads <>).
      const char next = j < n ? s[j] : '\0';
      tok.type = TokenType::kSymbol;
      if ((c == '<' && (next == '=' || next == '>')) ||
          ((c == '>' || c == '!') && next == '=')) {
        if (c == '!') {
          s[i] = '<';
          s[j] = '>';
        }
        ++j;
      } else if (cls != kSymbol) {
        return Status::ParseError(
            StrFormat("unexpected character '%c' at offset %zu", c, i));
      }
      tok.text = std::string_view(s + i, j - i);
    }
    i = j;
  }
  Token& end = list.tokens_.emplace_back();
  end.type = TokenType::kEnd;
  end.offset = static_cast<int>(n);
  return list;
}

}  // namespace cote

#ifndef COTE_PARSER_TOKEN_H_
#define COTE_PARSER_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace cote {

enum class TokenType : uint8_t {
  kIdent,      ///< identifier or keyword (keywords matched case-insensitively)
  kNumber,     ///< numeric literal
  kString,     ///< 'quoted string'
  kSymbol,     ///< punctuation: ( ) , . = < > <= >= <> * +
  kEnd,        ///< end of input
};

/// Keywords of the grammar. The lexer classifies every identifier once
/// (whole token, ASCII case-insensitive), so the parser compares enums.
/// Every keyword except DATE is reserved: it can be neither a table name,
/// an implicit alias nor a column.
enum class Keyword : uint8_t {
  kNone,  ///< not a keyword (and every non-identifier token)
  kSelect,
  kFrom,
  kWhere,
  kGroup,
  kOrder,
  kBy,
  kAnd,
  kJoin,
  kLeft,
  kOuter,
  kInner,
  kOn,
  kAs,
  kDistinct,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kLike,
  kBetween,
  kFetch,
  kFirst,
  kRows,
  kOnly,
  kLimit,
  kDesc,
  kAsc,
  kDate,  ///< starts a DATE '...' literal; not reserved
};

/// Lower-case spelling of `kw` ("" for kNone), as used in error messages.
const char* KeywordName(Keyword kw);

/// The keyword an identifier spells, ignoring ASCII case, or kNone.
Keyword ClassifyKeyword(std::string_view ident);

/// \brief A lexed token with its source offset (for error messages).
///
/// `text` views the buffer of the TokenList the token came from (see
/// lexer.h); a string literal's text is its unescaped contents.
struct Token {
  TokenType type = TokenType::kEnd;
  /// Set by the lexer for identifiers; kNone for every other token type.
  Keyword keyword = Keyword::kNone;
  int offset = 0;
  std::string_view text;

  bool IsSymbol(const char* s) const {
    return type == TokenType::kSymbol && text == s;
  }
  bool IsKeyword(Keyword kw) const { return keyword == kw; }
  bool IsReserved() const {
    return keyword != Keyword::kNone && keyword != Keyword::kDate;
  }

  std::string ToString() const;
};

}  // namespace cote

#endif  // COTE_PARSER_TOKEN_H_

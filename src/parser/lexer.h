#ifndef COTE_PARSER_LEXER_H_
#define COTE_PARSER_LEXER_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "parser/token.h"

namespace cote {

/// \brief The tokens of one statement and the one buffer their text views.
///
/// The list owns a copy of the lexed input, so every Token::text stays
/// valid for the list's lifetime, whatever becomes of the caller's string.
/// Moving the list keeps the views valid (the buffer does not move); the
/// list cannot be copied.
class TokenList {
 public:
  size_t size() const { return tokens_.size(); }
  const Token& operator[](size_t i) const { return tokens_[i]; }

 private:
  friend class Lexer;

  std::unique_ptr<char[]> buffer_;
  std::vector<Token> tokens_;
};

/// \brief Tokenizes SQL text into a flat token stream.
///
/// Comments (`-- ...` to end of line) and whitespace are skipped. The final
/// token is always kEnd. Fails on unterminated strings and unknown bytes.
/// Each identifier's keyword is classified here, once (Token::keyword).
/// Character classes are ASCII and do not depend on the C locale.
///
/// The lexer views `input` without copying it; the text must outlive
/// Tokenize(). Tokenize() makes two heap allocations, the list's copy of
/// the input and its token vector (sized once from the input length), and
/// writes into the copy in place: a string literal's `''` escapes are
/// resolved inside the literal's own span and `!=` reads `<>`, so every
/// token keeps its source offset.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  StatusOr<TokenList> Tokenize();

 private:
  std::string_view input_;
};

}  // namespace cote

#endif  // COTE_PARSER_LEXER_H_

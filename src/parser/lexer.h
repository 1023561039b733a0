#ifndef COTE_PARSER_LEXER_H_
#define COTE_PARSER_LEXER_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "parser/token.h"

namespace cote {

/// \brief Tokenizes SQL text into a flat token stream.
///
/// Comments (`-- ...` to end of line) and whitespace are skipped. The final
/// token is always kEnd. Fails on unterminated strings and unknown bytes.
/// Each identifier's keyword is classified here, once (Token::keyword).
///
/// The lexer views `input` without copying it; the text must outlive
/// Tokenize(). Tokens own their text.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  StatusOr<std::vector<Token>> Tokenize();

 private:
  std::string_view input_;
};

}  // namespace cote

#endif  // COTE_PARSER_LEXER_H_

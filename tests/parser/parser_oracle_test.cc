// Oracle test for the zero-copy lexer and the in-place parser: on every
// input, they must agree with the reference implementation kept in
// tests/common/reference_parser.h — token for token, AST field for field,
// or with the same Status code and message.
//
// Inputs: every SQL statement in src/workload/, every string literal in
// tests/parser/ (both read from the source tree, so new statements and new
// test inputs join the oracle by themselves), seeded mutations of those
// (keyword case flips, extra whitespace and `--` comments, doubled quotes
// inside literals, `!=`, leading-dot numbers) and their truncations at
// every token boundary, most of which are errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "tests/common/reference_parser.h"

namespace cote {
namespace {

namespace fs = std::filesystem;

// ---- Inputs from the source tree -------------------------------------------

/// Every string literal of a C++ source file, adjacent literals joined as
/// the compiler joins them. Comments, preprocessor lines and character
/// literals are skipped; raw strings and the common escapes are read.
std::vector<std::string> StringLiterals(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  std::vector<std::string> out;
  bool joining = false;  // the last token was a string literal
  bool line_start = true;
  size_t i = 0;
  auto at = [&](size_t k) { return k < src.size() ? src[k] : '\0'; };
  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      line_start = true;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if ((c == '#' && line_start) || (c == '/' && at(i + 1) == '/')) {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    line_start = false;
    if (c == '/' && at(i + 1) == '*') {
      const size_t close = src.find("*/", i + 2);
      i = close == std::string::npos ? src.size() : close + 2;
      continue;
    }
    std::string text;
    if (c == 'R' && at(i + 1) == '"') {
      const size_t open = src.find('(', i + 2);
      const std::string close =
          ")" + src.substr(i + 2, open - (i + 2)) + "\"";
      const size_t end = src.find(close, open);
      text = src.substr(open + 1, end - (open + 1));
      i = end + close.size();
    } else if (c == '"') {
      ++i;
      while (i < src.size() && src[i] != '"') {
        char ch = src[i++];
        if (ch == '\\') {
          ch = src[i++];
          if (ch == 'n') ch = '\n';
          if (ch == 't') ch = '\t';
          if (ch == 'r') ch = '\r';
          if (ch == '0') ch = '\0';
        }
        text += ch;
      }
      ++i;
    } else {
      if (c == '\'') {  // character literal
        i += at(i + 1) == '\\' ? 2 : 1;
        while (i < src.size() && src[i] != '\'') ++i;
      }
      joining = false;
      ++i;
      continue;
    }
    if (joining) {
      out.back() += text;
    } else {
      out.push_back(text);
    }
    joining = true;
  }
  return out;
}

std::vector<fs::path> SourceFiles(const char* dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(fs::path(COTE_SOURCE_DIR) / dir)) {
    if (e.path().extension() == ".cc") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::string> WorkloadStatements() {
  std::vector<std::string> out;
  for (const fs::path& file : SourceFiles("src/workload")) {
    for (std::string& lit : StringLiterals(file)) {
      if (lit.find("SELECT") != std::string::npos) out.push_back(lit);
    }
  }
  return out;
}

std::vector<std::string> ParserTestInputs() {
  std::vector<std::string> out;
  for (const fs::path& file : SourceFiles("tests/parser")) {
    for (std::string& lit : StringLiterals(file)) out.push_back(lit);
  }
  return out;
}

// ---- Comparison ------------------------------------------------------------

void Put(std::string* out, std::string_view s) {
  *out += std::to_string(s.size());
  *out += ':';
  out->append(s);
  *out += ' ';
}

void Put(std::string* out, long long v) {
  *out += std::to_string(v);
  *out += ' ';
}

void DumpColumn(const ast::ColumnName& c, std::string* out) {
  Put(out, c.qualifier);
  Put(out, c.column);
}

void DumpStatement(const ast::SelectStatement& s, std::string* out);

void DumpPredicates(const std::vector<ast::Predicate>& preds,
                    std::string* out) {
  Put(out, static_cast<long long>(preds.size()));
  for (const ast::Predicate& p : preds) {
    *out += "pred ";
    Put(out, p.is_join);
    DumpColumn(p.left, out);
    Put(out, static_cast<long long>(p.op));
    DumpColumn(p.right, out);
    Put(out, static_cast<long long>(p.literal.kind));
    Put(out, p.literal.text);
    Put(out, static_cast<long long>(p.literal2.kind));
    Put(out, p.literal2.text);
    if (p.subquery == nullptr) {
      *out += "nosub ";
    } else {
      *out += "sub( ";
      DumpStatement(*p.subquery, out);
      *out += ") ";
    }
  }
}

/// Every field of the statement, strings length-prefixed: two statements
/// are equal field by field exactly when their dumps are equal.
void DumpStatement(const ast::SelectStatement& s, std::string* out) {
  Put(out, s.distinct);
  Put(out, static_cast<long long>(s.select_list.size()));
  for (const ast::SelectItem& item : s.select_list) {
    Put(out, static_cast<long long>(item.agg));
    Put(out, item.star);
    DumpColumn(item.column, out);
    Put(out, item.output_alias);
  }
  Put(out, static_cast<long long>(s.from.size()));
  for (const ast::FromItem& item : s.from) {
    Put(out, item.table.table_name);
    Put(out, item.table.alias);
    Put(out, static_cast<long long>(item.joins.size()));
    for (const ast::JoinClause& jc : item.joins) {
      Put(out, jc.left_outer);
      Put(out, jc.table.table_name);
      Put(out, jc.table.alias);
      DumpPredicates(jc.on, out);
    }
  }
  DumpPredicates(s.where, out);
  Put(out, static_cast<long long>(s.group_by.size()));
  for (const ast::ColumnName& c : s.group_by) DumpColumn(c, out);
  Put(out, static_cast<long long>(s.order_by.size()));
  for (const ast::OrderItem& o : s.order_by) {
    DumpColumn(o.column, out);
    Put(out, o.descending);
  }
  Put(out, s.fetch_first);
}

std::string Dump(const ast::SelectStatement& s) {
  std::string out;
  DumpStatement(s, &out);
  return out;
}

std::string StatusText(const Status& s) {
  return std::to_string(static_cast<int>(s.code())) + " " + s.message();
}

/// The first difference between the reference and the new lexer on
/// `sql`, or "" when they agree.
std::string CompareTokens(const std::string& sql) {
  const auto want = reference::Lexer(sql).Tokenize();
  const auto got = Lexer(sql).Tokenize();
  if (want.ok() != got.ok()) {
    return "lexer: reference " +
           (want.ok() ? "ok" : StatusText(want.status())) + ", new " +
           (got.ok() ? "ok" : StatusText(got.status()));
  }
  if (!want.ok()) {
    return StatusText(want.status()) == StatusText(got.status())
               ? ""
               : "lexer: reference " + StatusText(want.status()) + ", new " +
                     StatusText(got.status());
  }
  if (want->size() != got->size()) return "lexer: token counts differ";
  for (size_t k = 0; k < want->size(); ++k) {
    const reference::Token& w = (*want)[k];
    const Token& g = (*got)[k];
    if (w.type != g.type || w.keyword != g.keyword || w.text != g.text ||
        w.offset != g.offset) {
      return "lexer: token " + std::to_string(k) + " differs: reference " +
             w.ToString() + ", new " + g.ToString();
    }
  }
  return "";
}

bool IsRowCountOutOfRange(const Status& s) {
  return s.message().rfind("row count out of range", 0) == 0;
}

/// The offset a ParseError message ends with ("... at offset N").
size_t ErrorOffset(const Status& s) {
  const std::string& m = s.message();
  return std::stoul(m.substr(m.rfind("at offset ") + 10));
}

/// True when the number at `offset` has leading digits that do not fit a
/// long long.
bool CountOutOfRangeAt(const std::string& sql, size_t offset) {
  size_t i = offset;
  while (i < sql.size() && sql[i] == '0') ++i;
  size_t end = i;
  while (end < sql.size() && sql[end] >= '0' && sql[end] <= '9') ++end;
  const std::string digits = sql.substr(i, end - i);
  return digits.size() > 19 ||
         (digits.size() == 19 && digits > "9223372036854775807");
}

/// The first difference between the reference and the new parser on
/// `sql`, or "" when they agree. The one deliberate difference: a FETCH
/// FIRST / LIMIT count that does not fit a long long, which the reference
/// read with std::atoll and went on, and the new parser rejects there.
std::string CompareParse(const std::string& sql, int* out_of_range) {
  const auto want = reference::Parser::Parse(sql);
  const auto got = Parser::Parse(sql);
  if (!got.ok() && IsRowCountOutOfRange(got.status())) {
    ++*out_of_range;
    const size_t at = ErrorOffset(got.status());
    if (!CountOutOfRangeAt(sql, at)) {
      return "parser: rejected an in-range count: " +
             StatusText(got.status());
    }
    if (!want.ok() && ErrorOffset(want.status()) <= at) {
      return "parser: reference failed before the count: " +
             StatusText(want.status());
    }
    return "";
  }
  if (want.ok() != got.ok()) {
    return "parser: reference " +
           (want.ok() ? "ok" : StatusText(want.status())) + ", new " +
           (got.ok() ? "ok" : StatusText(got.status()));
  }
  if (!want.ok()) {
    return StatusText(want.status()) == StatusText(got.status())
               ? ""
               : "parser: reference " + StatusText(want.status()) +
                     ", new " + StatusText(got.status());
  }
  const std::string w = Dump(*want);
  const std::string g = Dump(*got);
  return w == g ? "" : "parser: ASTs differ:\n  reference " + w + "\n  new       " + g;
}

struct OracleRun {
  int cases = 0;
  int parsed = 0;  ///< cases both parsers accepted
  int out_of_range = 0;
  std::vector<std::string> failures;

  void Check(const std::string& sql) {
    ++cases;
    std::string diff = CompareTokens(sql);
    if (diff.empty()) diff = CompareParse(sql, &out_of_range);
    if (diff.empty() && Parser::Parse(sql).ok()) ++parsed;
    if (!diff.empty()) failures.push_back(diff + "\n  input: " + sql);
  }

  void Report() const {
    for (size_t k = 0; k < failures.size() && k < 10; ++k) {
      ADD_FAILURE() << failures[k];
    }
    EXPECT_TRUE(failures.empty()) << failures.size() << " of " << cases
                                  << " inputs differ";
  }
};

// ---- Mutations -------------------------------------------------------------

/// The end of `tok`'s source span in `sql` (a string literal's text is
/// unescaped, so its span is found in the source).
size_t SourceEnd(const std::string& sql, const reference::Token& tok) {
  if (tok.type != TokenType::kString) {
    return static_cast<size_t>(tok.offset) +
           (tok.type == TokenType::kEnd ? 0 : tok.text.size());
  }
  size_t j = static_cast<size_t>(tok.offset) + 1;
  while (j < sql.size()) {
    if (sql[j] == '\'') {
      if (j + 1 < sql.size() && sql[j + 1] == '\'') {
        j += 2;
        continue;
      }
      return j + 1;
    }
    ++j;
  }
  return j;
}

bool Chance(Rng* rng, int percent) {
  return rng->Uniform(100) < static_cast<uint64_t>(percent);
}

std::string Filler(Rng* rng) {
  static const char* const kFillers[] = {" ", "  ", "\t", "\n", "\r\n",
                                         "\v", "\f", " -- note\n",
                                         "--select from where\n"};
  return kFillers[rng->Uniform(std::size(kFillers))];
}

/// One seeded mutant of a statement that lexes: each token and each gap
/// may be rewritten, keeping what the mutation kinds name.
std::string Mutate(const std::string& sql,
                   const std::vector<reference::Token>& tokens, Rng* rng) {
  std::string out;
  size_t pos = 0;
  for (const reference::Token& tok : tokens) {
    const size_t start = static_cast<size_t>(tok.offset);
    out += sql.substr(pos, start - pos);
    if (Chance(rng, 15)) out += Filler(rng);
    if (tok.type == TokenType::kEnd) break;
    const size_t end = SourceEnd(sql, tok);
    std::string span = sql.substr(start, end - start);
    switch (tok.type) {
      case TokenType::kIdent:
        if (tok.keyword != Keyword::kNone && Chance(rng, 50)) {
          for (char& ch : span) {
            if (Chance(rng, 50)) {
              ch = static_cast<char>(ch ^ 0x20);  // flips an ASCII letter
            }
          }
        }
        break;
      case TokenType::kNumber:
        if (Chance(rng, 30)) {
          if (span.find('.') == std::string::npos) {
            span = "." + span;
          } else if (span[0] == '0') {
            span.erase(0, 1);
          }
        }
        break;
      case TokenType::kString:
        if (Chance(rng, 30)) {
          span.insert(1 + rng->Uniform(span.size() - 1), "''");
        }
        break;
      case TokenType::kSymbol:
        if ((span == "<>" && Chance(rng, 50)) ||
            (span == "=" && Chance(rng, 10))) {
          span = "!=";
        }
        break;
      case TokenType::kEnd:
        break;
    }
    out += span;
    pos = end;
  }
  out += sql.substr(std::min(pos, sql.size()));
  if (Chance(rng, 10)) out += " -- trailing comment";
  return out;
}

// ---- Tests -----------------------------------------------------------------

TEST(ParserOracleTest, WorkloadStatementsMatchReference) {
  const std::vector<std::string> statements = WorkloadStatements();
  // sql_workloads.cc and tpch_full.cc hold 54 statements today.
  EXPECT_GE(statements.size(), 54u);
  OracleRun run;
  for (const std::string& sql : statements) run.Check(sql);
  EXPECT_EQ(run.parsed, run.cases);  // every workload statement parses
  run.Report();
}

TEST(ParserOracleTest, ParserTestInputsMatchReference) {
  const std::vector<std::string> inputs = ParserTestInputs();
  EXPECT_GE(inputs.size(), 200u);
  OracleRun run;
  for (const std::string& sql : inputs) run.Check(sql);
  EXPECT_GT(run.parsed, 30);
  // parser_test's out-of-range LIMIT row, the one deliberate difference.
  EXPECT_GE(run.out_of_range, 1);
  run.Report();
}

TEST(ParserOracleTest, SeededMutationsAndTruncationsMatchReference) {
  std::vector<std::string> seeds = WorkloadStatements();
  for (std::string& s : ParserTestInputs()) seeds.push_back(std::move(s));
  Rng rng(20031);
  OracleRun run;
  int mutants = 0, truncations = 0;
  std::set<std::string> seen;
  for (const std::string& sql : seeds) {
    const auto tokens = reference::Lexer(sql).Tokenize();
    if (!tokens.ok()) continue;
    for (int m = 0; m < 8; ++m) {
      const std::string mutant = Mutate(sql, *tokens, &rng);
      if (seen.insert(mutant).second) {
        run.Check(mutant);
        ++mutants;
      }
    }
    for (const reference::Token& tok : *tokens) {
      for (size_t cut : {static_cast<size_t>(tok.offset), SourceEnd(sql, tok)}) {
        const std::string prefix = sql.substr(0, cut);
        if (seen.insert(prefix).second) {
          run.Check(prefix);
          ++truncations;
        }
      }
    }
  }
  EXPECT_GE(mutants, 1000);
  EXPECT_GE(truncations, 1000);
  EXPECT_GT(run.parsed, 500);
  run.Report();
}

// The lexer's views stay valid after the lexer and the caller's string are
// gone, and moving the list does not move the buffer they view.
TEST(ParserOracleTest, TokenListOutlivesItsInput) {
  TokenList tokens;
  {
    std::string sql = "SELECT 'it''s' FROM t WHERE a != 1";
    auto lexed = Lexer(sql).Tokenize();
    ASSERT_TRUE(lexed.ok());
    tokens = std::move(lexed).value();
    sql.assign(sql.size(), 'x');
  }
  ASSERT_EQ(tokens.size(), 9u);
  EXPECT_EQ(tokens[1].text, "it's");
  EXPECT_EQ(tokens[1].offset, 7);
  EXPECT_EQ(tokens[3].text, "t");
  EXPECT_EQ(tokens[3].offset, 20);
  EXPECT_TRUE(tokens[6].IsSymbol("<>"));
  EXPECT_EQ(tokens[6].offset, 30);
  EXPECT_EQ(tokens[7].text, "1");
}

}  // namespace
}  // namespace cote

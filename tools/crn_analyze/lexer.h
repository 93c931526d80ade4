// A lightweight C++ tokenizer for static analysis — not a full lexer, but
// exact where a line-regex scanner is approximate:
//
//   * raw string literals R"delim(...)delim" spanning any number of lines
//   * block comments spanning lines, line comments with splices (`\` + NL)
//   * digit separators (1'000'000) — a `'` inside a number never opens a
//     character literal
//   * preprocessor directives with line continuations, and #include target
//     extraction (quoted and angled) for the include-graph pass
//
// Output is three synchronized views of the same file:
//   scrubbed — per-line text with comments and literal contents blanked,
//              byte content only from real code (the view the per-file
//              rules match against)
//   tokens   — identifiers / numbers / string markers / punctuation with
//              1-based line numbers (the view the taint and concurrency
//              passes walk)
//   includes — every #include directive with its target
#ifndef CRN_ANALYZE_LEXER_H_
#define CRN_ANALYZE_LEXER_H_

#include <string>
#include <vector>

namespace crn::analyze {

enum class TokenKind { kIdentifier, kNumber, kString, kCharLiteral, kPunct };

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;  // identifier/number/punct spelling; literal value for strings
  int line = 0;      // 1-based
};

struct IncludeDirective {
  std::string target;
  int line = 0;
  bool angled = false;
};

struct LexResult {
  std::vector<std::string> scrubbed;  // same line count as the input
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
};

LexResult Lex(const std::string& content);

}  // namespace crn::analyze

#endif  // CRN_ANALYZE_LEXER_H_

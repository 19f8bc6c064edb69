#ifndef DMLSCALE_TOOLS_DML_LINT_H_
#define DMLSCALE_TOOLS_DML_LINT_H_

#include <string>
#include <string_view>
#include <vector>

namespace dmlscale::lint {

/// One rule violation at a specific source line.
struct Finding {
  std::string rule_id;    ///< e.g. "DML001"
  std::string rule_name;  ///< e.g. "wall-clock" (also the suppression key)
  std::string file;       ///< path as given to the linter
  int line = 0;           ///< 1-based
  std::string message;    ///< what was found
  std::string rationale;  ///< one-line why this is banned
};

/// Static catalog entry for a rule; `Rules()` lists every rule so --help and
/// the docs stay in sync with the implementation.
struct RuleInfo {
  std::string_view id;
  std::string_view name;
  std::string_view rationale;
};

/// The full rule catalog, in rule-id order.
const std::vector<RuleInfo>& Rules();

/// Lints one translation unit held in memory. `path` decides which
/// path-scoped rules apply (e.g. float-numerics only under core/ and sim/)
/// and is echoed into findings; it should be repo-relative with forward
/// slashes, e.g. "src/core/speedup.cc". Deterministic: findings are ordered by
/// line, then rule id.
///
/// Suppression: a violation line carrying `// dml-lint: allow(<rule-name>)`
/// in a comment is skipped for that rule only.
std::vector<Finding> LintSource(const std::string& path,
                                std::string_view contents);

/// Reads and lints one file on disk. Returns false (and appends to `errors`)
/// when the file cannot be read.
bool LintFile(const std::string& path, std::vector<Finding>* findings,
              std::vector<std::string>* errors);

/// Renders a finding as "file:line: [ID/name] message" plus an indented
/// rationale line — the format the ctest `lint` entry greps for.
std::string FormatFinding(const Finding& finding);

namespace internal {

/// The lexer's output: `code` mirrors the input byte-for-byte except that
/// comment bodies and string/character-literal bodies are blanked with
/// spaces (newlines preserved), so token scans cannot fire inside either.
/// `comments[i]` is the concatenated comment text seen on 1-based line i+1.
struct SourceView {
  std::string code;
  std::vector<std::string> comments;
};

/// Strips comments and literals (handles //, /* */, "...", '...', and
/// R"delim(...)delim" raw strings with escape sequences).
SourceView StripCommentsAndLiterals(std::string_view contents);

}  // namespace internal

}  // namespace dmlscale::lint

#endif  // DMLSCALE_TOOLS_DML_LINT_H_

// dml-lint: the repo-specific determinism linter.
//
// A deliberately small token scanner (no libclang): it strips comments and
// string/character literals, then matches identifier tokens against a fixed
// rule set. That is enough for every invariant below — each one is lexical —
// and keeps the tool a ~400-line dependency-free binary that builds with the
// tree and runs in milliseconds as a ctest entry.

#include "tools/dml_lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dmlscale::lint {
namespace {

constexpr std::string_view kRationaleWallClock =
    "nondeterministic time/RNG source; derive randomness from "
    "DeriveSeed/Pcg32 (common/random.h) and timing from Stopwatch, or opt "
    "in with // dml-lint: allow(wall-clock)";
constexpr std::string_view kRationaleUnordered =
    "unordered container iteration order is implementation-defined; sort "
    "keys before emitting report/CSV rows";
constexpr std::string_view kRationaleFloat =
    "core/sim numerics are double-precision by contract; a float literal or "
    "declaration silently truncates the paper's closed forms";
constexpr std::string_view kRationaleRegister =
    "DMLSCALE_REGISTER_* in a header re-registers once per includer; "
    "registrations must live in exactly one .cc";
constexpr std::string_view kRationaleTodo =
    "TODO must carry a tracking tag, e.g. TODO(#42): ..., so it cannot "
    "linger unowned";

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"DML001", "wall-clock", kRationaleWallClock},
      {"DML002", "unordered-iteration", kRationaleUnordered},
      {"DML003", "float-numerics", kRationaleFloat},
      {"DML004", "register-in-cc", kRationaleRegister},
      {"DML005", "todo-tag", kRationaleTodo},
  };
  return kRules;
}

namespace internal {

SourceView StripCommentsAndLiterals(std::string_view contents) {
  SourceView view;
  view.code.assign(contents.size(), ' ');
  size_t line_count =
      1 + static_cast<size_t>(
              std::count(contents.begin(), contents.end(), '\n'));
  view.comments.assign(line_count, std::string());

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  size_t line = 0;           // 0-based index into view.comments
  std::string raw_delim;     // delimiter of the active raw string, ")delim"
  for (size_t i = 0; i < contents.size(); ++i) {
    char c = contents[i];
    char next = i + 1 < contents.size() ? contents[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          // R"delim( opens a raw string; plain " a normal one. The R must
          // be its own token head (not part of an identifier like FOUR").
          size_t r = i;
          bool raw = r > 0 && contents[r - 1] == 'R' &&
                     (r < 2 || !IsIdentChar(contents[r - 2]));
          if (raw) {
            size_t paren = contents.find('(', i + 1);
            if (paren != std::string_view::npos) {
              raw_delim = ")";
              raw_delim.append(contents.substr(i + 1, paren - i - 1));
              raw_delim.push_back('"');
              view.code[i] = '"';
              i = paren;  // blank up to and including the open paren
              state = State::kRawString;
              break;
            }
          }
          view.code[i] = '"';
          state = State::kString;
        } else if (c == '\'') {
          // A digit separator (1'000'000) is part of a number, not a char
          // literal; chars inside literals are blanked so no lookbehind on
          // blanked content can misfire.
          if (i > 0 && IsIdentChar(contents[i - 1])) {
            view.code[i] = c;
          } else {
            view.code[i] = '\'';
            state = State::kChar;
          }
        } else {
          view.code[i] = c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          view.comments[line].push_back(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (c != '\n') {
          view.comments[line].push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          // The skipped escaped character bypasses the post-switch newline
          // bookkeeping; a backslash-newline (line continuation) must still
          // advance the comment line index or later suppressions desync.
          ++i;
          if (i < contents.size() && contents[i] == '\n') {
            ++line;
            view.code[i] = '\n';
          }
        } else if (c == '"') {
          view.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
          if (i < contents.size() && contents[i] == '\n') {
            ++line;
            view.code[i] = '\n';
          }
        } else if (c == '\'') {
          view.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' && contents.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          view.code[i] = '"';
          state = State::kCode;
        }
        break;
    }
    if (c == '\n') {
      ++line;
      view.code[i] = '\n';
    }
  }
  return view;
}

}  // namespace internal

namespace {

using internal::SourceView;

/// Per-file lint context shared by the rule passes.
class Linter {
 public:
  Linter(std::string path, std::string_view contents)
      : path_(std::move(path)),
        raw_(contents),
        view_(internal::StripCommentsAndLiterals(contents)) {
    line_starts_.push_back(0);
    for (size_t i = 0; i < raw_.size(); ++i) {
      if (raw_[i] == '\n') line_starts_.push_back(i + 1);
    }
  }

  std::vector<Finding> Run() {
    CheckWallClock();
    CheckUnorderedIteration();
    CheckFloatNumerics();
    CheckRegisterInCc();
    CheckTodoTag();
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.line != b.line) return a.line < b.line;
                       return a.rule_id < b.rule_id;
                     });
    return std::move(findings_);
  }

 private:
  // ---- shared helpers ----------------------------------------------------

  int LineOf(size_t pos) const {
    auto it = std::upper_bound(line_starts_.begin(), line_starts_.end(), pos);
    return static_cast<int>(it - line_starts_.begin());
  }

  bool PathContains(std::string_view dir) const {
    return path_.find(std::string("/") + std::string(dir) + "/") !=
               std::string::npos ||
           path_.rfind(std::string(dir) + "/", 0) == 0;
  }

  bool IncludesHeader(std::string_view header) const {
    return raw_.find(std::string("#include \"") + std::string(header) +
                     "\"") != std::string::npos;
  }

  /// True when 1-based `line` carries `// dml-lint: allow(<rule>)`.
  bool Suppressed(int line, std::string_view rule_name) const {
    const std::string& comment = view_.comments[static_cast<size_t>(line - 1)];
    std::string needle = "dml-lint: allow(";
    needle.append(rule_name);
    needle.push_back(')');
    return comment.find(needle) != std::string::npos;
  }

  void Report(const RuleInfo& rule, size_t pos, std::string message) {
    int line = LineOf(pos);
    if (Suppressed(line, rule.name)) return;
    findings_.push_back(Finding{std::string(rule.id), std::string(rule.name),
                                path_, line, std::move(message),
                                std::string(rule.rationale)});
  }

  /// Next occurrence of `ident` as a whole identifier token in the blanked
  /// code, at or after `from`; npos when absent.
  size_t FindIdent(std::string_view ident, size_t from) const {
    const std::string& code = view_.code;
    for (size_t pos = code.find(ident, from); pos != std::string::npos;
         pos = code.find(ident, pos + 1)) {
      bool head_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
      size_t end = pos + ident.size();
      bool tail_ok = end >= code.size() || !IsIdentChar(code[end]);
      if (head_ok && tail_ok) return pos;
    }
    return std::string::npos;
  }

  size_t SkipSpaces(size_t pos) const {
    while (pos < view_.code.size() && IsSpace(view_.code[pos])) ++pos;
    return pos;
  }

  // ---- DML001: wall-clock ------------------------------------------------

  void CheckWallClock() {
    const RuleInfo& rule = Rules()[0];
    // Bare mentions of these types/engines are already a smell, call or not.
    static constexpr std::string_view kBannedIdents[] = {
        "random_device",         "system_clock", "high_resolution_clock",
        "steady_clock",          "mt19937",      "mt19937_64",
        "default_random_engine",
    };
    // These only fire as calls: `time` alone is a fine variable name.
    static constexpr std::string_view kBannedCalls[] = {"rand", "srand",
                                                        "time"};
    for (std::string_view ident : kBannedIdents) {
      for (size_t pos = FindIdent(ident, 0); pos != std::string::npos;
           pos = FindIdent(ident, pos + 1)) {
        Report(rule, pos, std::string("use of '") + std::string(ident) + "'");
      }
    }
    for (std::string_view ident : kBannedCalls) {
      for (size_t pos = FindIdent(ident, 0); pos != std::string::npos;
           pos = FindIdent(ident, pos + 1)) {
        size_t after = SkipSpaces(pos + ident.size());
        if (after < view_.code.size() && view_.code[after] == '(') {
          Report(rule, pos,
                 std::string("call to '") + std::string(ident) + "()'");
        }
      }
    }
  }

  // ---- DML002: unordered-iteration ---------------------------------------

  /// Names declared in this file with an unordered container type, e.g.
  /// `std::unordered_map<std::string, double> values;` yields "values".
  std::vector<std::string> CollectUnorderedNames() const {
    std::vector<std::string> names;
    const std::string& code = view_.code;
    for (std::string_view type : {"unordered_map", "unordered_set"}) {
      for (size_t pos = FindIdent(type, 0); pos != std::string::npos;
           pos = FindIdent(type, pos + 1)) {
        size_t cursor = SkipSpaces(pos + type.size());
        if (cursor >= code.size() || code[cursor] != '<') continue;
        int depth = 0;
        while (cursor < code.size()) {
          if (code[cursor] == '<') ++depth;
          if (code[cursor] == '>' && --depth == 0) break;
          ++cursor;
        }
        if (cursor >= code.size()) continue;
        cursor = SkipSpaces(cursor + 1);
        // Skip refs/pointers in declarations like `const unordered_map<..>& m`.
        while (cursor < code.size() &&
               (code[cursor] == '&' || code[cursor] == '*')) {
          cursor = SkipSpaces(cursor + 1);
        }
        size_t name_end = cursor;
        while (name_end < code.size() && IsIdentChar(code[name_end])) {
          ++name_end;
        }
        if (name_end > cursor) {
          names.push_back(code.substr(cursor, name_end - cursor));
        }
      }
    }
    return names;
  }

  /// Reduces a range-for sequence expression to its trailing identifier:
  /// "shard.values" -> "values", "this->cells_" -> "cells_", "*m" -> "m".
  /// Returns "" for anything that is not a simple access path (calls,
  /// arithmetic, braced-init), which this rule then ignores.
  static std::string TrailingIdentifier(std::string_view expr) {
    std::string trimmed;
    for (char c : expr) {
      if (!IsSpace(c)) trimmed.push_back(c);
    }
    if (trimmed.empty()) return "";
    size_t start = 0;
    while (start < trimmed.size() &&
           (trimmed[start] == '*' || trimmed[start] == '&')) {
      ++start;
    }
    std::string last;
    size_t i = start;
    while (i < trimmed.size()) {
      if (IsIdentChar(trimmed[i])) {
        size_t j = i;
        while (j < trimmed.size() && IsIdentChar(trimmed[j])) ++j;
        last = trimmed.substr(i, j - i);
        i = j;
      } else if (trimmed.compare(i, 2, "->") == 0) {
        i += 2;
      } else if (trimmed.compare(i, 2, "::") == 0) {
        i += 2;
      } else if (trimmed[i] == '.') {
        ++i;
      } else {
        return "";  // call, index, cast, ... — not a plain access path
      }
    }
    return last;
  }

  void CheckUnorderedIteration() {
    // Scope: files that emit human/CSV reports, where iteration order
    // becomes output bytes. Everything else may use unordered containers
    // freely (MemoCache does, by design).
    bool report_producing = PathContains("sweep") ||
                            IncludesHeader("common/csv_writer.h") ||
                            IncludesHeader("common/table_printer.h") ||
                            IncludesHeader("sweep/report.h");
    if (!report_producing) return;
    std::vector<std::string> unordered = CollectUnorderedNames();
    if (unordered.empty()) return;

    const RuleInfo& rule = Rules()[1];
    const std::string& code = view_.code;
    for (size_t pos = FindIdent("for", 0); pos != std::string::npos;
         pos = FindIdent("for", pos + 1)) {
      size_t open = SkipSpaces(pos + 3);
      if (open >= code.size() || code[open] != '(') continue;
      int depth = 0;
      size_t close = open;
      while (close < code.size()) {
        if (code[close] == '(') ++depth;
        if (code[close] == ')' && --depth == 0) break;
        ++close;
      }
      if (close >= code.size()) continue;
      // The range-for ':' at paren depth 1, skipping '::'.
      size_t colon = std::string::npos;
      int inner = 0;
      for (size_t i = open + 1; i < close; ++i) {
        char c = code[i];
        if (c == '(' || c == '[' || c == '{') ++inner;
        if (c == ')' || c == ']' || c == '}') --inner;
        if (c == ':' && inner == 0) {
          if (i + 1 < close && code[i + 1] == ':') {
            ++i;
            continue;
          }
          if (i > 0 && code[i - 1] == ':') continue;
          colon = i;
          break;
        }
      }
      if (colon == std::string::npos) continue;  // classic for loop
      std::string target = TrailingIdentifier(
          std::string_view(code).substr(colon + 1, close - colon - 1));
      if (target.empty()) continue;
      if (std::find(unordered.begin(), unordered.end(), target) !=
          unordered.end()) {
        Report(rule, pos,
               "range-for over unordered container '" + target +
                   "' in a report-producing file");
      }
    }
  }

  // ---- DML003: float-numerics --------------------------------------------

  void CheckFloatNumerics() {
    if (!PathContains("core") && !PathContains("sim")) return;
    const RuleInfo& rule = Rules()[2];
    for (size_t pos = FindIdent("float", 0); pos != std::string::npos;
         pos = FindIdent("float", pos + 1)) {
      Report(rule, pos, "'float' declaration");
    }
    // Float literals: 1.0f, 2.f, .5f, 1e3f — but not hex ints like 0x1F.
    const std::string& code = view_.code;
    for (size_t i = 0; i < code.size(); ++i) {
      char c = code[i];
      bool starts_number =
          (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
           (c == '.' && i + 1 < code.size() &&
            std::isdigit(static_cast<unsigned char>(code[i + 1])) != 0)) &&
          (i == 0 || (!IsIdentChar(code[i - 1]) && code[i - 1] != '.'));
      if (!starts_number) continue;
      size_t start = i;
      if (c == '0' && i + 1 < code.size() &&
          (code[i + 1] == 'x' || code[i + 1] == 'X')) {
        // Hex literal: consume it whole so a trailing F digit cannot be
        // mistaken for a float suffix.
        i += 2;
        while (i < code.size() &&
               (std::isxdigit(static_cast<unsigned char>(code[i])) != 0 ||
                code[i] == '\'')) {
          ++i;
        }
        continue;
      }
      bool fractional = false;
      while (i < code.size()) {
        char d = code[i];
        if (std::isdigit(static_cast<unsigned char>(d)) != 0 || d == '\'') {
          ++i;
        } else if (d == '.') {
          fractional = true;
          ++i;
        } else if ((d == 'e' || d == 'E') && i + 1 < code.size() &&
                   (std::isdigit(static_cast<unsigned char>(code[i + 1])) !=
                        0 ||
                    ((code[i + 1] == '+' || code[i + 1] == '-') &&
                     i + 2 < code.size() &&
                     std::isdigit(static_cast<unsigned char>(code[i + 2])) !=
                         0))) {
          fractional = true;
          i += (code[i + 1] == '+' || code[i + 1] == '-') ? 2 : 1;
        } else {
          break;
        }
      }
      if (i < code.size() && (code[i] == 'f' || code[i] == 'F') &&
          fractional &&
          (i + 1 >= code.size() || !IsIdentChar(code[i + 1]))) {
        Report(rule, start,
               "float literal '" + code.substr(start, i - start + 1) + "'");
      }
    }
  }

  // ---- DML004: register-in-cc --------------------------------------------

  void CheckRegisterInCc() {
    if (path_.size() >= 3 && path_.compare(path_.size() - 3, 3, ".cc") == 0) {
      return;
    }
    const RuleInfo& rule = Rules()[3];
    const std::string& code = view_.code;
    static constexpr std::string_view kPrefix = "DMLSCALE_REGISTER_";
    for (size_t pos = code.find(kPrefix); pos != std::string::npos;
         pos = code.find(kPrefix, pos + 1)) {
      if (pos > 0 && IsIdentChar(code[pos - 1])) continue;
      // The `#define DMLSCALE_REGISTER_*` lines themselves are fine; only
      // *uses* outside a .cc are flagged.
      size_t line_start = line_starts_[static_cast<size_t>(LineOf(pos) - 1)];
      size_t first = SkipSpaces(line_start);
      if (first < code.size() && code[first] == '#') continue;
      size_t end = pos;
      while (end < code.size() && IsIdentChar(code[end])) ++end;
      std::string message = "'";
      message.append(code, pos, end - pos);
      message.append("' used outside a .cc file");
      Report(rule, pos, std::move(message));
    }
  }

  // ---- DML005: todo-tag --------------------------------------------------

  void CheckTodoTag() {
    const RuleInfo& rule = Rules()[4];
    for (size_t li = 0; li < view_.comments.size(); ++li) {
      const std::string& comment = view_.comments[li];
      for (size_t pos = comment.find("TODO"); pos != std::string::npos;
           pos = comment.find("TODO", pos + 1)) {
        if (pos > 0 && IsIdentChar(comment[pos - 1])) continue;
        size_t after = pos + 4;
        bool tagged = false;
        if (after < comment.size() && comment[after] == '(') {
          size_t close = comment.find(')', after + 1);
          if (close != std::string::npos) {
            for (size_t i = after + 1; i < close; ++i) {
              if (!IsSpace(comment[i])) {
                tagged = true;
                break;
              }
            }
          }
        }
        if (!tagged) {
          size_t line_pos = line_starts_[li];
          Report(rule, line_pos, "'TODO' without an issue tag");
        }
      }
    }
  }

  std::string path_;
  std::string raw_;
  SourceView view_;
  std::vector<size_t> line_starts_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> LintSource(const std::string& path,
                                std::string_view contents) {
  return Linter(path, contents).Run();
}

bool LintFile(const std::string& path, std::vector<Finding>* findings,
              std::vector<std::string>* errors) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    errors->push_back("cannot read " + path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<Finding> file_findings = LintSource(path, buf.str());
  findings->insert(findings->end(), file_findings.begin(),
                   file_findings.end());
  return true;
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << finding.rule_id
      << "/" << finding.rule_name << "] " << finding.message
      << "\n  rationale: " << finding.rationale;
  return out.str();
}

}  // namespace dmlscale::lint

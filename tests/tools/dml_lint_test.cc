#include "tools/dml_lint.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace dmlscale::lint {
namespace {

// Convenience: lints `contents` under `path` and returns the rule ids hit.
std::vector<std::string> RuleIdsFor(const std::string& path,
                                    std::string_view contents) {
  std::vector<std::string> ids;
  for (const Finding& f : LintSource(path, contents)) {
    ids.push_back(f.rule_id);
  }
  return ids;
}

bool Fires(const std::string& path, std::string_view contents,
           const std::string& rule_id) {
  for (const Finding& f : LintSource(path, contents)) {
    if (f.rule_id == rule_id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// DML001 wall-clock
// ---------------------------------------------------------------------------

TEST(DmlLintWallClock, FiresOnRandCall) {
  EXPECT_TRUE(Fires("src/core/x.cc", "int f() { return rand(); }\n",
                    "DML001"));
}

TEST(DmlLintWallClock, FiresOnRandomDevice) {
  EXPECT_TRUE(Fires("src/nn/x.cc",
                    "#include <random>\nstd::random_device rd;\n", "DML001"));
}

TEST(DmlLintWallClock, FiresOnSystemClock) {
  EXPECT_TRUE(Fires(
      "src/api/x.cc",
      "auto t = std::chrono::system_clock::now();\n", "DML001"));
}

TEST(DmlLintWallClock, FiresOnHighResolutionClock) {
  EXPECT_TRUE(Fires(
      "src/sim/x.cc",
      "using C = std::chrono::high_resolution_clock;\n", "DML001"));
}

TEST(DmlLintWallClock, FiresOnTimeCall) {
  EXPECT_TRUE(Fires("src/core/x.cc",
                    "#include <ctime>\nlong f() { return time(nullptr); }\n",
                    "DML001"));
}

TEST(DmlLintWallClock, PassesOnPcg32AndTimeVariable) {
  // `time` as a plain identifier (not a call) is fine; so is the sanctioned
  // RNG from common/random.h.
  EXPECT_FALSE(Fires("src/core/x.cc",
                     "#include \"common/random.h\"\n"
                     "double f(double time) { Pcg32 rng(1); "
                     "return time + rng.NextDouble(); }\n",
                     "DML001"));
}

TEST(DmlLintWallClock, PassesOnIdentifierContainingBannedWord) {
  // ElapsedTime( — `time` is not a standalone token here.
  EXPECT_FALSE(Fires("src/core/x.cc",
                     "double ElapsedTime();\ndouble f() { return "
                     "ElapsedTime(); }\n",
                     "DML001"));
}

TEST(DmlLintWallClock, EscapeHatchSuppressesWallClock) {
  EXPECT_FALSE(Fires("src/common/x.h",
                     "using Clock = std::chrono::steady_clock;  "
                     "// dml-lint: allow(wall-clock)\n",
                     "DML001"));
  // Without the escape hatch the same line fires.
  EXPECT_TRUE(Fires("src/common/x.h",
                    "using Clock = std::chrono::steady_clock;\n", "DML001"));
}

TEST(DmlLintWallClock, SuppressionIsPerLine) {
  // The allow comment on line 1 must not leak to line 2.
  EXPECT_TRUE(Fires("src/core/x.cc",
                    "int a = rand();  // dml-lint: allow(wall-clock)\n"
                    "int b = rand();\n",
                    "DML001"));
}

TEST(DmlLintWallClock, IgnoresBannedTokensInStringsAndComments) {
  EXPECT_FALSE(Fires("src/core/x.cc",
                     "// rand() would be nondeterministic\n"
                     "const char* kDoc = \"never call rand() or "
                     "system_clock\";\n",
                     "DML001"));
}

// ---------------------------------------------------------------------------
// DML002 unordered-iteration
// ---------------------------------------------------------------------------

constexpr std::string_view kUnorderedLoop =
    "#include \"common/csv_writer.h\"\n"
    "#include <unordered_map>\n"
    "std::unordered_map<int, double> cells_;\n"
    "void Emit() {\n"
    "  for (const auto& [k, v] : cells_) { Use(k, v); }\n"
    "}\n";

TEST(DmlLintUnordered, FiresInReportProducingFile) {
  EXPECT_TRUE(Fires("src/sweep/report.cc", kUnorderedLoop, "DML002"));
}

TEST(DmlLintUnordered, FiresWhenFileIncludesCsvWriter) {
  EXPECT_TRUE(Fires("src/api/analysis.cc", kUnorderedLoop, "DML002"));
}

TEST(DmlLintUnordered, PassesOutsideReportProducingFiles) {
  // MemoCache-style use away from report emission is allowed.
  std::string no_csv(kUnorderedLoop.substr(kUnorderedLoop.find('\n') + 1));
  EXPECT_FALSE(Fires("src/common/memo_cache.cc", no_csv, "DML002"));
}

TEST(DmlLintUnordered, PassesOnOrderedMapIteration) {
  EXPECT_FALSE(Fires("src/sweep/report.cc",
                     "#include <map>\n"
                     "std::map<int, double> cells_;\n"
                     "void Emit() { for (const auto& [k, v] : cells_) "
                     "Use(k, v); }\n",
                     "DML002"));
}

TEST(DmlLintUnordered, PassesOnClassicForLoop) {
  EXPECT_FALSE(Fires("src/sweep/report.cc",
                     "#include <unordered_map>\n"
                     "#include \"common/csv_writer.h\"\n"
                     "std::unordered_map<int, double> cells_;\n"
                     "void Emit() { for (int i = 0; i < 3; ++i) Use(i); }\n",
                     "DML002"));
}

TEST(DmlLintUnordered, SuppressionComment) {
  EXPECT_FALSE(Fires(
      "src/sweep/report.cc",
      "#include \"common/csv_writer.h\"\n"
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> cells_;\n"
      "void Emit() {\n"
      // e.g. keys collected and sorted first, raw loop is order-insensitive
      "  for (const auto& [k, v] : cells_) {  "
      "// dml-lint: allow(unordered-iteration)\n"
      "    Use(k, v);\n"
      "  }\n"
      "}\n",
      "DML002"));
}

// ---------------------------------------------------------------------------
// DML003 float-numerics
// ---------------------------------------------------------------------------

TEST(DmlLintFloat, FiresOnFloatDeclarationInCore) {
  EXPECT_TRUE(Fires("src/core/speedup.cc", "float x = 0;\n", "DML003"));
}

TEST(DmlLintFloat, FiresOnFloatLiteralInSim) {
  EXPECT_TRUE(Fires("src/sim/simulator.cc", "double x = 1.5f;\n", "DML003"));
}

TEST(DmlLintFloat, PassesOnDoubleInCore) {
  EXPECT_FALSE(
      Fires("src/core/speedup.cc", "double x = 1.5; double y = 2e-3;\n",
            "DML003"));
}

TEST(DmlLintFloat, PassesOnFloatOutsideCoreSim) {
  EXPECT_FALSE(Fires("src/nn/tensor.cc", "float x = 1.5f;\n", "DML003"));
}

TEST(DmlLintFloat, PassesOnHexLiteralEndingInF) {
  EXPECT_FALSE(
      Fires("src/core/speedup.cc", "unsigned x = 0x1F; unsigned y = 0xacf;\n",
            "DML003"));
}

TEST(DmlLintFloat, SuppressionComment) {
  EXPECT_FALSE(Fires("src/core/speedup.cc",
                     "float x = 0;  // dml-lint: allow(float-numerics)\n",
                     "DML003"));
}

// ---------------------------------------------------------------------------
// DML004 register-in-cc
// ---------------------------------------------------------------------------

TEST(DmlLintRegister, FiresOnRegistrationInHeader) {
  EXPECT_TRUE(Fires("src/api/x.h",
                    "DMLSCALE_REGISTER_COMM_MODEL(\"m\", \"h\", F);\n",
                    "DML004"));
}

TEST(DmlLintRegister, PassesOnRegistrationInCc) {
  EXPECT_FALSE(Fires("src/api/x.cc",
                     "DMLSCALE_REGISTER_COMM_MODEL(\"m\", \"h\", F);\n",
                     "DML004"));
}

TEST(DmlLintRegister, PassesOnMacroDefinitionInHeader) {
  EXPECT_FALSE(Fires("src/api/registry.h",
                     "#define DMLSCALE_REGISTER_COMM_MODEL(name) x\n",
                     "DML004"));
}

TEST(DmlLintRegister, PassesOnMentionInComment) {
  EXPECT_FALSE(Fires("src/api/registry.h",
                     "/// use the DMLSCALE_REGISTER_* macros below\n",
                     "DML004"));
}

TEST(DmlLintRegister, SuppressionComment) {
  EXPECT_FALSE(Fires("src/api/x.h",
                     "DMLSCALE_REGISTER_COMM_MODEL(\"m\", \"h\", F);  "
                     "// dml-lint: allow(register-in-cc)\n",
                     "DML004"));
}

// ---------------------------------------------------------------------------
// DML005 todo-tag
// ---------------------------------------------------------------------------

TEST(DmlLintTodo, FiresOnBareTodo) {
  EXPECT_TRUE(Fires("src/core/x.cc", "// TODO: clean this up\n", "DML005"));
}

TEST(DmlLintTodo, FiresOnEmptyTag) {
  EXPECT_TRUE(Fires("src/core/x.cc", "// TODO(): clean this up\n", "DML005"));
}

TEST(DmlLintTodo, PassesOnTaggedTodo) {
  EXPECT_FALSE(
      Fires("src/core/x.cc", "// TODO(#42): clean this up\n", "DML005"));
}

TEST(DmlLintTodo, PassesOnWordContainingTodo) {
  EXPECT_FALSE(Fires("src/core/x.cc", "// the MASTODON dataset\n", "DML005"));
}

TEST(DmlLintTodo, SuppressionComment) {
  EXPECT_FALSE(Fires("src/core/x.cc",
                     "// TODO someday — dml-lint: allow(todo-tag)\n",
                     "DML005"));
}

// ---------------------------------------------------------------------------
// Cross-cutting: ordering, formatting, catalog
// ---------------------------------------------------------------------------

TEST(DmlLint, FindingsAreOrderedByLineThenRule) {
  std::string source =
      "float bad_late = 1.0f;\n"
      "int bad_early = rand();\n";
  // Line 1 fires DML003 twice (declaration + literal); both sort before the
  // line-2 DML001 despite the lower rule id.
  std::vector<std::string> ids = RuleIdsFor("src/core/x.cc", source);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], "DML003");
  EXPECT_EQ(ids[1], "DML003");
  EXPECT_EQ(ids[2], "DML001");
}

TEST(DmlLint, FindingCarriesFileLineAndRationale) {
  std::vector<Finding> findings =
      LintSource("src/core/x.cc", "int a = 0;\nint b = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/x.cc");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule_id, "DML001");
  EXPECT_EQ(findings[0].rule_name, "wall-clock");
  EXPECT_FALSE(findings[0].rationale.empty());
  std::string formatted = FormatFinding(findings[0]);
  EXPECT_NE(formatted.find("src/core/x.cc:2:"), std::string::npos);
  EXPECT_NE(formatted.find("[DML001/wall-clock]"), std::string::npos);
  EXPECT_NE(formatted.find("rationale:"), std::string::npos);
}

TEST(DmlLint, RuleCatalogIsCompleteAndStable) {
  const std::vector<RuleInfo>& rules = Rules();
  ASSERT_EQ(rules.size(), 5u);
  EXPECT_EQ(rules[0].id, "DML001");
  EXPECT_EQ(rules[4].id, "DML005");
  for (const RuleInfo& r : rules) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_FALSE(r.rationale.empty());
  }
}

TEST(DmlLint, CleanSourcePassesEverything) {
  EXPECT_TRUE(RuleIdsFor("src/core/x.cc",
                         "#include \"common/random.h\"\n"
                         "// TODO(#7): extend to mesh topologies.\n"
                         "double f(dmlscale::Pcg32* rng) { return "
                         "rng->NextDouble(); }\n")
                  .empty());
}

// The lexer: rules must not fire inside raw strings, and line numbers must
// survive block comments.
TEST(DmlLint, RawStringsAreOpaque) {
  EXPECT_FALSE(Fires("src/core/x.cc",
                     "const char* kSql = R\"(select rand() from t)\";\n",
                     "DML001"));
}

TEST(DmlLint, LineNumbersSurviveBlockComments) {
  std::vector<Finding> findings = LintSource(
      "src/core/x.cc", "/* a\n   b\n   c */\nint x = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(DmlLint, LineNumbersSurviveLineContinuationInString) {
  // A backslash-newline (line continuation) inside a string literal is an
  // escaped character; it must still count as a physical line so findings
  // and allow-comments later in the file attach to the right line.
  std::vector<Finding> findings = LintSource(
      "src/core/x.cc", "const char* s = \"a\\\nb\";\nint x = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_FALSE(Fires("src/core/x.cc",
                     "const char* s = \"a\\\nb\";\n"
                     "int x = rand();  // dml-lint: allow(wall-clock)\n",
                     "DML001"));
}

}  // namespace
}  // namespace dmlscale::lint

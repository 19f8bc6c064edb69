#ifndef DMLSCALE_COMMON_ARG_PARSER_H_
#define DMLSCALE_COMMON_ARG_PARSER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace dmlscale {

/// Minimal `--key=value` / `--flag` command-line parser for the benchmark
/// and example binaries. Unknown keys are collected and reported.
class ArgParser {
 public:
  /// Parses argv; arguments not starting with "--" become positionals.
  [[nodiscard]] static Result<ArgParser> Parse(int argc,
                                               const char* const* argv);

  bool Has(const std::string& key) const;

  /// Rejects typo'd flags: kInvalidArgument naming each parsed `--flag` not
  /// in `known`, plus the full list of known flags. Drivers call this once,
  /// after Parse, with every flag they read — otherwise a misspelled flag
  /// silently falls back to its default.
  [[nodiscard]] Status CheckKnown(const std::vector<std::string>& known) const;

  /// Typed getters with defaults.
  std::string GetString(const std::string& key, const std::string& def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace dmlscale

#endif  // DMLSCALE_COMMON_ARG_PARSER_H_

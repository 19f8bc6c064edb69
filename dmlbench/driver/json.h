#ifndef DMLBENCH_DRIVER_JSON_H_
#define DMLBENCH_DRIVER_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dmlbench {

/// A double with all 17 significant digits (round-trips exactly through
/// Python's float parser); non-finite values become null.
std::string JsonDouble(double value);

/// A quoted, escaped JSON string.
std::string JsonQuote(std::string_view text);

std::string JsonArray(const std::vector<double>& values);
std::string JsonArray(const std::vector<uint64_t>& values);

/// Builds one JSON object field by field, in insertion order.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Int(std::string_view key, int64_t value);
  JsonObject& Str(std::string_view key, std::string_view value);
  JsonObject& Bool(std::string_view key, bool value);
  /// `json` must already be a JSON value.
  JsonObject& Raw(std::string_view key, std::string_view json);

  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Writes `text` to `path`; false on any I/O error.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace dmlbench

#endif  // DMLBENCH_DRIVER_JSON_H_

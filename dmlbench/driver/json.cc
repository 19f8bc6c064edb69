#include "json.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace dmlbench {

std::string JsonDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonDouble(values[i]);
  }
  return out + "]";
}

std::string JsonArray(const std::vector<uint64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  return Raw(key, JsonDouble(value));
}

JsonObject& JsonObject::Int(std::string_view key, int64_t value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  return Raw(key, JsonQuote(value));
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  if (!body_.empty()) body_ += ",";
  body_ += JsonQuote(key);
  body_ += ":";
  body_ += json;
  return *this;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace dmlbench

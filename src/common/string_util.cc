#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace dmlscale {

std::string Join(const std::vector<std::string>& parts, std::string_view sep,
                 std::string_view empty) {
  if (parts.empty()) return std::string(empty);
  std::string out = parts.front();
  for (size_t i = 1; i < parts.size(); ++i) {
    out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<int64_t> ParseInt64(std::string_view s) {
  std::string buf(StripWhitespace(s));
  if (buf.empty()) return Status::InvalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::OutOfRange("integer overflow: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf(StripWhitespace(s));
  if (buf.empty()) return Status::InvalidArgument("empty double");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a double: " + buf);
  }
  return v;
}

std::string FormatDouble(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

std::string HumanCount(double v) {
  const char* suffix = "";
  double scaled = v;
  if (std::fabs(v) >= 1e12) {
    scaled = v / 1e12;
    suffix = "T";
  } else if (std::fabs(v) >= 1e9) {
    scaled = v / 1e9;
    suffix = "G";
  } else if (std::fabs(v) >= 1e6) {
    scaled = v / 1e6;
    suffix = "M";
  } else if (std::fabs(v) >= 1e3) {
    scaled = v / 1e3;
    suffix = "K";
  }
  std::ostringstream os;
  os.precision(3);
  os << scaled << suffix;
  return os.str();
}

}  // namespace dmlscale

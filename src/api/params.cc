#include "api/params.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/string_util.h"

namespace dmlscale::api {

namespace {

std::string JoinKeys(const std::map<std::string, double>& values,
                     const std::map<std::string, std::string>& strings) {
  std::vector<std::string> keys;
  keys.reserve(values.size() + strings.size());
  for (const auto& [key, value] : values) keys.push_back(key);
  for (const auto& [key, value] : strings) keys.push_back(key);
  return Join(keys, ", ", "<none>");
}

}  // namespace

Result<double> ModelParams::Get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::InvalidArgument("missing required parameter '" + key +
                                   "' (provided: " +
                                   JoinKeys(values_, strings_) + ")");
  }
  return it->second;
}

double ModelParams::GetOr(const std::string& key, double def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

Result<std::string> ModelParams::GetString(const std::string& key) const {
  auto it = strings_.find(key);
  if (it == strings_.end()) {
    return Status::InvalidArgument("missing required string parameter '" +
                                   key + "' (provided: " +
                                   JoinKeys(values_, strings_) + ")");
  }
  return it->second;
}

std::string ModelParams::GetStringOr(const std::string& key,
                                     std::string def) const {
  auto it = strings_.find(key);
  return it == strings_.end() ? std::move(def) : it->second;
}

Status ModelParams::ExpectOnly(
    std::initializer_list<std::string_view> allowed) const {
  auto check = [&](const std::string& key) -> Status {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return Status::InvalidArgument(
          "unknown parameter '" + key + "' (accepted: " +
          Menu({allowed.begin(), allowed.size()}) + ")");
    }
    return Status::OK();
  };
  for (const auto& [key, value] : values_) {
    if (Status s = check(key); !s.ok()) return s;
  }
  for (const auto& [key, value] : strings_) {
    if (Status s = check(key); !s.ok()) return s;
  }
  return Status::OK();
}

std::string Menu(std::span<const std::string_view> names) {
  std::vector<std::string> parts(names.begin(), names.end());
  return Join(parts, ", ", "<none>");
}

Status RequireOwner(const ModelParams& params, const std::string& key,
                    const std::string& selected, std::string_view owner,
                    const std::string& owner_kind) {
  if (params.Has(key) && selected != owner) {
    return Status::InvalidArgument(
        "parameter '" + key + "' requires " + owner_kind + "='" +
        std::string(owner) + "' (selected: '" + selected + "')");
  }
  return Status::OK();
}

Result<int> IntegerParam(const ModelParams& params, const std::string& key,
                         double def, double min) {
  constexpr int kMax = std::numeric_limits<int>::max();
  double value = params.GetOr(key, def);
  // Spelled so NaN fails too (every comparison with NaN is false); inf
  // fails the upper bound.
  if (!(value >= min && value <= kMax) || value != std::floor(value)) {
    return Status::InvalidArgument(key + " must be an integer in [" +
                                   FormatDouble(min, 0) + ", " +
                                   std::to_string(kMax) + "]");
  }
  return static_cast<int>(value);
}

}  // namespace dmlscale::api

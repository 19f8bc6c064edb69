#ifndef DMLSCALE_API_PARAMS_H_
#define DMLSCALE_API_PARAMS_H_

#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace dmlscale::api {

/// Named parameters for a registered model factory, e.g.
/// `{{"total_flops", 196e9}}` for "perfectly-parallel" or
/// `{{"bits", 64e6}, {"rounds", 2}}` for "tree".
///
/// All model parameters in the paper's formulas are scalars (work, payload
/// bits, fractions, round counts), so the numeric bag holds doubles;
/// a separate string bag carries enumerated choices — the network keys
/// `topology` ("fat-tree", "mesh2d", "star") and `queue` ("mm1") that select
/// the fabric a communication model is priced on. Anything structural
/// (hardware, link, callables) travels through the `ScenarioBuilder`.
class ModelParams {
 public:
  ModelParams() = default;
  ModelParams(std::initializer_list<std::pair<const std::string, double>> init)
      : values_(init) {}

  ModelParams& Set(std::string key, double value) {
    values_[std::move(key)] = value;
    return *this;
  }
  /// String parameters; the const char* overload keeps `Set("queue", "mm1")`
  /// from decaying into the double overload.
  ModelParams& Set(std::string key, std::string value) {
    strings_[std::move(key)] = std::move(value);
    return *this;
  }
  ModelParams& Set(std::string key, const char* value) {
    return Set(std::move(key), std::string(value));
  }

  bool Has(const std::string& key) const { return values_.contains(key); }
  bool HasString(const std::string& key) const {
    return strings_.contains(key);
  }

  /// The numeric value for `key`; kInvalidArgument naming the key and listing
  /// the keys that were provided when absent.
  [[nodiscard]] Result<double> Get(const std::string& key) const;

  /// The numeric value for `key`, or `def` when absent.
  double GetOr(const std::string& key, double def) const;

  /// The string value for `key`; kInvalidArgument when absent.
  [[nodiscard]] Result<std::string> GetString(const std::string& key) const;

  /// The string value for `key`, or `def` when absent.
  std::string GetStringOr(const std::string& key, std::string def) const;

  /// Guards against typo'd parameter names: kInvalidArgument naming each key
  /// (numeric or string) not in `allowed` (factories call this so `--rounds`
  /// misspelled as `--round` fails loudly instead of silently using the
  /// default).
  [[nodiscard]] Status ExpectOnly(
      std::initializer_list<std::string_view> allowed) const;

  const std::map<std::string, double>& values() const { return values_; }
  const std::map<std::string, std::string>& strings() const {
    return strings_;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> strings_;
};

// Helpers shared by the facet resolvers (network, faults, serving), which
// select a variant by a string key and own variant-specific numeric keys.

/// `names` joined as "a, b, c" ("<none>" when empty): the menu an unknown
/// selection lists.
std::string Menu(std::span<const std::string_view> names);

/// kInvalidArgument when `key` is present but its owner is not the selected
/// variant, e.g. `pod` without topology='fat-tree'.
[[nodiscard]] Status RequireOwner(const ModelParams& params,
                                  const std::string& key,
                                  const std::string& selected,
                                  std::string_view owner,
                                  const std::string& owner_kind);

/// The whole-number value for `key` (`def` when absent); kInvalidArgument
/// naming the key unless it is finite, integral and in [min, INT_MAX], so
/// the narrowing to int is always defined.
[[nodiscard]] Result<int> IntegerParam(const ModelParams& params,
                                       const std::string& key, double def,
                                       double min);

}  // namespace dmlscale::api

#endif  // DMLSCALE_API_PARAMS_H_

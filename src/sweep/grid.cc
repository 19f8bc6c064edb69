#include "sweep/grid.h"

#include <set>
#include <utility>

#include "common/check.h"

namespace dmlscale::sweep {

namespace {

/// Duplicate labels on one axis would make report rows indistinguishable and
/// alias the runner's eval-cache keys (which embed scenario and hardware
/// labels), silently reusing one cell's times for another. '@' and '|' are
/// those keys' separators ("<scenario>@<hardware>|cp|<n>"), so labels
/// containing them could collide across DISTINCT label pairs ("a" x "x@y"
/// vs "a@x" x "y") — ban them outright.
template <typename PointT>
Status CheckUniqueLabels(const std::vector<PointT>& axis,
                         const std::string& axis_name) {
  std::set<std::string> seen;
  for (const PointT& point : axis) {
    if (point.label.empty()) {
      return Status::InvalidArgument("empty " + axis_name + "-axis label");
    }
    if (point.label.find_first_of("@|") != std::string::npos) {
      return Status::InvalidArgument(
          axis_name + "-axis label '" + point.label +
          "' contains '@' or '|' (reserved as eval-cache key separators)");
    }
    if (!seen.insert(point.label).second) {
      return Status::FailedPrecondition("duplicate " + axis_name +
                                        "-axis label '" + point.label + "'");
    }
  }
  return Status::OK();
}

}  // namespace

ScenarioAxisPoint CalibratedAxisPoint(const ScenarioAxisPoint& base,
                                      std::string label,
                                      double compute_coefficient,
                                      double comm_coefficient) {
  ScenarioAxisPoint point = base;
  point.label = std::move(label);
  point.compute_coefficient = compute_coefficient;
  point.comm_coefficient = comm_coefficient;
  return point;
}

std::vector<ScenarioAxisPoint> ExpandNetworkAxis(
    const ScenarioAxisPoint& base, const std::vector<NetworkAxisPoint>& axis) {
  std::vector<ScenarioAxisPoint> expanded;
  expanded.reserve(axis.size());
  for (const NetworkAxisPoint& network : axis) {
    ScenarioAxisPoint point = base;
    point.label = base.label + "-" + network.label;
    for (const auto& [key, value] : network.params.values()) {
      point.comm_params.Set(key, value);
    }
    for (const auto& [key, value] : network.params.strings()) {
      point.comm_params.Set(key, value);
    }
    expanded.push_back(std::move(point));
  }
  return expanded;
}

SweepGrid& SweepGrid::AddScenario(ScenarioAxisPoint point) {
  scenarios_.push_back(std::move(point));
  return *this;
}

SweepGrid& SweepGrid::AddHardware(HardwareAxisPoint point) {
  hardware_.push_back(std::move(point));
  return *this;
}

SweepGrid& SweepGrid::AddOptions(OptionsAxisPoint point) {
  options_.push_back(std::move(point));
  return *this;
}

const std::vector<OptionsAxisPoint>& SweepGrid::options() const {
  return options_.empty() ? default_options_ : options_;
}

size_t SweepGrid::size() const {
  return scenarios_.size() * hardware_.size() * options().size();
}

Result<std::vector<SweepCell>> SweepGrid::Cells() const {
  if (scenarios_.empty()) {
    return Status::FailedPrecondition("sweep grid has no scenario axis");
  }
  if (hardware_.empty()) {
    return Status::FailedPrecondition("sweep grid has no hardware axis");
  }
  DMLSCALE_RETURN_NOT_OK(CheckUniqueLabels(scenarios_, "scenario"));
  DMLSCALE_RETURN_NOT_OK(CheckUniqueLabels(hardware_, "hardware"));
  DMLSCALE_RETURN_NOT_OK(CheckUniqueLabels(options(), "options"));
  const std::vector<OptionsAxisPoint>& opts = options();
  std::vector<SweepCell> cells;
  cells.reserve(size());
  size_t index = 0;
  for (size_t s = 0; s < scenarios_.size(); ++s) {
    for (size_t h = 0; h < hardware_.size(); ++h) {
      for (size_t o = 0; o < opts.size(); ++o) {
        cells.push_back(SweepCell{.index = index++,
                                  .scenario_index = s,
                                  .hardware_index = h,
                                  .options_index = o});
      }
    }
  }
  return cells;
}

const ScenarioAxisPoint& SweepGrid::scenario_of(const SweepCell& cell) const {
  DMLSCALE_CHECK_LT(cell.scenario_index, scenarios_.size());
  return scenarios_[cell.scenario_index];
}

const HardwareAxisPoint& SweepGrid::hardware_of(const SweepCell& cell) const {
  DMLSCALE_CHECK_LT(cell.hardware_index, hardware_.size());
  return hardware_[cell.hardware_index];
}

const OptionsAxisPoint& SweepGrid::options_of(const SweepCell& cell) const {
  const std::vector<OptionsAxisPoint>& opts = options();
  DMLSCALE_CHECK_LT(cell.options_index, opts.size());
  return opts[cell.options_index];
}

std::string SweepGrid::LabelOf(const SweepCell& cell) const {
  return scenario_of(cell).label + "/" + hardware_of(cell).label + "/" +
         options_of(cell).label;
}

Result<api::Scenario> SweepGrid::BuildScenario(const SweepCell& cell) const {
  const ScenarioAxisPoint& scenario = scenario_of(cell);
  const HardwareAxisPoint& hardware = hardware_of(cell);
  api::Scenario::Builder builder;
  builder.Name(scenario.label + "@" + hardware.label)
      .Hardware(hardware.cluster)
      .Compute(scenario.compute_model, scenario.compute_params)
      .Supersteps(scenario.supersteps)
      .WithCalibration(scenario.compute_coefficient,
                       scenario.comm_coefficient);
  if (!scenario.comm_model.empty()) {
    builder.Comm(scenario.comm_model, scenario.comm_params);
  }
  const bool has_faults = !scenario.fault_params.values().empty() ||
                          !scenario.fault_params.strings().empty();
  if (has_faults) {
    builder.Faults(scenario.fault_params);
  }
  const bool has_serving = !scenario.serving_params.values().empty() ||
                           !scenario.serving_params.strings().empty();
  if (has_serving) {
    builder.Serving(scenario.serving_params);
  }
  return builder.Build();
}

}  // namespace dmlscale::sweep

#include "api/faults.h"

#include <string>
#include <string_view>

namespace dmlscale::api {

namespace {

constexpr std::string_view kRecoveries[] = {"checkpoint-restart", "replica",
                                            "speculative"};

}  // namespace

Result<core::FaultSpec> ResolveFaultSpec(const ModelParams& params) {
  DMLSCALE_RETURN_NOT_OK(params.ExpectOnly(
      {"mtbf", "mttr", "straggler", "checkpoint_interval", "checkpoint_cost",
       "takeover", "spec_threshold", "recovery"}));

  const std::string recovery =
      params.GetStringOr("recovery", "checkpoint-restart");

  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "takeover", recovery, "replica", "recovery"));
  DMLSCALE_RETURN_NOT_OK(RequireOwner(params, "spec_threshold", recovery,
                                      "speculative", "recovery"));
  if ((params.Has("checkpoint_interval") || params.Has("checkpoint_cost")) &&
      recovery == "replica") {
    return Status::InvalidArgument(
        "checkpoint parameters are meaningless under recovery='replica' "
        "(the hot spare keeps the state); drop them or pick "
        "recovery='checkpoint-restart' or 'speculative'");
  }

  core::FaultSpec spec;
  if (recovery == "checkpoint-restart") {
    spec.recovery = core::RecoveryStrategy::kCheckpointRestart;
  } else if (recovery == "replica") {
    spec.recovery = core::RecoveryStrategy::kReplicaTakeover;
    spec.takeover_seconds = params.GetOr("takeover", 0.0);
  } else if (recovery == "speculative") {
    spec.recovery = core::RecoveryStrategy::kSpeculativeReexec;
    spec.speculation_threshold = params.GetOr("spec_threshold", 2.0);
  } else {
    return Status::InvalidArgument("unknown recovery '" + recovery +
                                   "'; available: " + Menu(kRecoveries));
  }

  spec.mtbf_seconds = params.GetOr("mtbf", 0.0);
  spec.mttr_seconds = params.GetOr("mttr", 0.0);
  spec.straggler_sigma = params.GetOr("straggler", 0.0);
  spec.checkpoint_interval_s = params.GetOr("checkpoint_interval", 0.0);
  spec.checkpoint_cost_s = params.GetOr("checkpoint_cost", 0.0);

  DMLSCALE_RETURN_NOT_OK(spec.Validate());
  return spec;
}

}  // namespace dmlscale::api

#ifndef DMLSCALE_SIM_PARAM_SERVER_H_
#define DMLSCALE_SIM_PARAM_SERVER_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/hardware.h"
#include "sim/overhead.h"

namespace dmlscale::sim {

/// Event-driven simulation of asynchronous parameter-server training
/// (Section VI future work): `n` workers loop compute -> push -> pull with
/// no barrier; the server serializes transfers over its single NIC.
/// Validates the closed-form AsyncGdModel, including the server-NIC
/// saturation point and the staleness distribution.

struct ParamServerConfig {
  /// Gradient work per update, multiply-adds (C * S per mini-batch).
  double ops_per_update = 0.0;
  /// Bits per push (and per pull), `bits_per_param * W`.
  double message_bits = 0.0;
  core::NodeSpec node;
  /// Worker-side link.
  core::LinkSpec worker_link;
  /// Server NIC; all pushes and pulls share it sequentially.
  core::LinkSpec server_link;
  OverheadModel overhead;
  /// Simulation horizon: stop after this many completed updates.
  int64_t target_updates = 200;

  /// ops_per_update and message_bits must be finite and > 0; the node,
  /// links and overhead must validate.
  Status Validate() const;
};

struct ParamServerStats {
  /// Completed updates per second of simulated time.
  double updates_per_sec = 0.0;
  /// Mean number of other updates applied between a worker's pull and its
  /// push (the staleness the convergence model charges for).
  double mean_staleness = 0.0;
  double max_staleness = 0.0;
  /// Fraction of server-NIC busy time (1.0 = saturated).
  double server_utilization = 0.0;
  int64_t completed_updates = 0;
};

/// Runs the simulation with `n` workers as a plain loop over one EventHeap
/// (equal-time events run in push order). Jitter is drawn from `rng` in
/// event order.
Result<ParamServerStats> SimulateParameterServer(
    const ParamServerConfig& config, int n, Pcg32* rng);

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_PARAM_SERVER_H_

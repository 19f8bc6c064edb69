#ifndef DMLBENCH_DRIVER_LAYERS_H_
#define DMLBENCH_DRIVER_LAYERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "tracer.h"

namespace dmlbench {

using Metrics = std::vector<std::pair<std::string, double>>;

/// The traced run: every layer group (paper-sweep, engine-10k, serve-fleet)
/// once, with spans around each call into a module's public functions.
/// Appends the per-layer metrics, derived from the spans, to `metrics` and
/// every checked output to `log`. Returns false when an output file cannot
/// be written.
bool RunTracedLayers(uint64_t seed, Tracer& tracer, OutputLog& log,
                     Metrics& metrics);

}  // namespace dmlbench

#endif  // DMLBENCH_DRIVER_LAYERS_H_

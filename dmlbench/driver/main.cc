// The dmlbench driver. dmlbench/run.py builds it and runs one mode per
// process:
//
//   --mode=setup --workload=W --seed=N
//       builds the workload's grid, specs and pools, then exits (run.py
//       times several of these for setup_s);
//   --mode=run --workload=W --seed=N --seconds=S --out=DIR
//       repeats (serial run, 4-way run) of the workload's problem for about
//       S seconds, at least once, and writes DIR/result.json plus every
//       output for the checker;
//   --mode=trace --seed=N --out=DIR
//       the traced run: every layer group once with spans, writing
//       DIR/result.json (per-layer metrics) and DIR/trace.json (Chrome
//       trace events).
//
// Timings are refused from anything but a Release build with asserts off.

#include <filesystem>
#include <iostream>
#include <string>

#include "common/arg_parser.h"
#include "common/stopwatch.h"
#include "json.h"
#include "layers.h"
#include "report.h"
#include "tracer.h"
#include "workloads.h"

namespace dmlbench {
namespace {

int RunMode(const std::string& workload_name, uint64_t seed, double seconds,
            const std::string& out_dir) {
  std::unique_ptr<Workload> workload = MakeWorkload(workload_name, seed);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << workload_name << "'\n";
    return 2;
  }
  OutputLog log(out_dir);
  JsonObject reps_json;
  dmlscale::Stopwatch total;
  bool ok = true;
  int reps = 0;
  double rep_s = 0.0;
  // Closed loop: each run starts when the previous one returns. Another
  // (serial, parallel) repetition starts only if it should end in time.
  do {
    dmlscale::Stopwatch watch;
    RunOutput serial = workload->Run(1);
    const double serial_s = watch.ElapsedSeconds();
    watch.Reset();
    RunOutput parallel = workload->Run(kParallelWidth);
    const double parallel_s = watch.ElapsedSeconds();
    ok = log.Add(workload_name, serial, serial_s, &parallel, parallel_s) && ok;
    ++reps;
    rep_s = total.ElapsedSeconds() / reps;
  } while (total.ElapsedSeconds() + rep_s <= seconds);

  std::string result = JsonObject()
                           .Str("mode", "run")
                           .Str("workload", workload_name)
                           .Int("seed", static_cast<int64_t>(seed))
                           .Raw("provenance", ProvenanceJson())
                           .Int("reps", reps)
                           .Int("attempted", log.attempted())
                           .Int("failed", log.failed())
                           .Int("peak_rss_kb", PeakRssKb())
                           .Raw("entries", log.Json())
                           .str();
  if (!ok || !WriteFile(out_dir + "/result.json", result + "\n")) {
    std::cerr << "cannot write results under " << out_dir << "\n";
    return 1;
  }
  return 0;
}

int TraceMode(uint64_t seed, const std::string& out_dir) {
  Tracer tracer;
  OutputLog log(out_dir);
  Metrics metrics;
  bool ok = RunTracedLayers(seed, tracer, log, metrics);
  metrics.emplace_back("ops_attempted", log.attempted());
  metrics.emplace_back("ops_failed", log.failed());
  JsonObject metrics_json;
  for (const auto& [name, value] : metrics) metrics_json.Num(name, value);
  std::string provenance = ProvenanceJson();
  std::string result = JsonObject()
                           .Str("mode", "trace")
                           .Int("seed", static_cast<int64_t>(seed))
                           .Raw("provenance", provenance)
                           .Int("attempted", log.attempted())
                           .Int("failed", log.failed())
                           .Raw("metrics", metrics_json.str())
                           .Str("trace_file", "trace.json")
                           .Raw("entries", log.Json())
                           .str();
  ok = WriteFile(out_dir + "/trace.json", tracer.ChromeJson(provenance)) && ok;
  ok = WriteFile(out_dir + "/result.json", result + "\n") && ok;
  if (!ok) {
    std::cerr << "cannot write results under " << out_dir << "\n";
    return 1;
  }
  return 0;
}

int Main(int argc, const char* const* argv) {
  auto args = dmlscale::ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return 2;
  }
  dmlscale::Status known =
      args->CheckKnown({"mode", "workload", "seed", "seconds", "out"});
  if (!known.ok()) {
    std::cerr << known << "\n";
    return 2;
  }
  const std::string mode = args->GetString("mode", "");
  const std::string workload = args->GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(args->GetInt("seed", 1));
  const std::string out_dir = args->GetString("out", "");

  if (mode == "setup") {
    return MakeWorkload(workload, seed) == nullptr ? 2 : 0;
  }
  if (!IsReleaseBuild()) {
    std::cerr << "refusing to report timings from a non-Release build "
              << ProvenanceJson()
              << "; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (out_dir.empty() || !std::filesystem::is_directory(out_dir)) {
    std::cerr << "--out must name an existing directory\n";
    return 2;
  }
  if (mode == "run") {
    return RunMode(workload, seed, args->GetDouble("seconds", 10.0), out_dir);
  }
  if (mode == "trace") return TraceMode(seed, out_dir);
  std::cerr << "--mode must be setup, run or trace\n";
  return 2;
}

}  // namespace
}  // namespace dmlbench

int main(int argc, char** argv) { return dmlbench::Main(argc, argv); }

#ifndef DMLSCALE_BENCH_BENCHMARK_MAIN_H_
#define DMLSCALE_BENCH_BENCHMARK_MAIN_H_

#include <benchmark/benchmark.h>

namespace dmlscale::bench {

/// BENCHMARK_MAIN's body plus a `dmlscale_build_type` context field. The
/// stock `library_build_type` field names google-benchmark's OWN build type
/// (debug for the distro package); this one records how the dmlscale code
/// under test was compiled, so a checked-in baseline can't silently come
/// from an unoptimized build.
inline int RunBenchmarks(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("dmlscale_build_type", "release");
#else
  benchmark::AddCustomContext("dmlscale_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace dmlscale::bench

#endif  // DMLSCALE_BENCH_BENCHMARK_MAIN_H_

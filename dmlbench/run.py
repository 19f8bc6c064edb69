#!/usr/bin/env python3
"""dmlbench: the end-to-end and per-layer benchmark of dmlscale.

    python3 dmlbench/run.py --all
        builds the driver (Release) and runs every workload at the default
        seed, then the traced run; prints each metric by name with its unit.
    python3 dmlbench/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last stdout line is the JSON result.
    python3 dmlbench/run.py --spread 10 [--workload W]
        runs each workload (or W) with seeds 1..10 and prints every
        end-to-end metric's median, quartiles and quartile spread.
    python3 dmlbench/run.py --self-test
        checks the output checker and the metric names (no build needed).
    python3 dmlbench/run.py --capture-reference
        rewrites dmlbench/reference/ from the default-seed outputs.

Builds go to .bench_build/dmlbench and run outputs (result.json, every
checked output, trace.json) to .bench_build/results/, both inside the
checkout. See dmlbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing next to the sources
import check  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUILD_DIR = REPO_ROOT / ".bench_build" / "dmlbench"
RESULTS_DIR = REPO_ROOT / ".bench_build" / "results"
DRIVER = BUILD_DIR / "dmlbench"

WORKLOADS = ("paper-sweep", "engine-10k", "serve-fleet")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30  # BENCHMARK.json's run_seconds
# setup_s is the median of this many set-up-only driver processes.
SETUP_SPAWNS = 21
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Every metric the benchmark prints: name -> (unit, better). Must match
# BENCHMARK.json in both directions (--self-test and every run check it).
END_TO_END = {
    "serial_s": ("s", "lower"),
    "parallel_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "sweep.cell_p50_ms": ("ms", "lower"),
    "sweep.cell_p90_ms": ("ms", "lower"),
    "sweep.fanout_speedup": ("x", "higher"),
    "common.memo_hit_ratio": ("ratio", "higher"),
    "api.build_s": ("s", "lower"),
    "api.analysis.analytic_s": ("s", "lower"),
    "api.analysis.planner_s": ("s", "lower"),
    "api.analysis.sim_s": ("s", "lower"),
    "api.analysis.sim-spark-overhead_s": ("s", "lower"),
    "api.analysis.contended_share": ("ratio", "lower"),
    "core.closed_form_s": ("s", "lower"),
    "core.traffic_s": ("s", "lower"),
    "core.contended_price_s": ("s", "lower"),
    "sim.link_des_s": ("s", "lower"),
    "sweep.replay_coverage": ("ratio", "higher"),
    "sim.ring.events": ("count", "lower"),
    "sim.ring.windows": ("count", "lower"),
    "sim.ring.messages": ("count", "lower"),
    "sim.ring.ns_per_event_serial": ("ns", "lower"),
    "sim.ring.ns_per_event_sharded": ("ns", "lower"),
    "sim.ring.shard_speedup": ("x", "higher"),
    "sim.ring1k.ns_per_event_serial": ("ns", "lower"),
    "core.q3_replicas_ms": ("ms", "lower"),
    "serve.analyze_us": ("us", "lower"),
    "serve.des.events": ("count", "lower"),
    "serve.des.batches": ("count", "lower"),
    "serve.des.ns_per_request_serial": ("ns", "lower"),
    "serve.des.ns_per_request_sharded": ("ns", "lower"),
    "serve.des.shard_speedup": ("x", "higher"),
    "serve.des.ns_per_request_r100": ("ns", "lower"),
    "serve.des.dispatch_growth": ("x", "lower"),
    "serve.des.r100_shard_speedup": ("x", "higher"),
    "ops_attempted": ("count", "higher"),
    "ops_failed": ("count", "lower"),
}


class BenchError(Exception):
    """A failure that leaves no result to print (exit code 1)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def git_commit():
    if not (REPO_ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    """Configures (once) and builds the driver in Release."""
    if not (REPO_ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"{REPO_ROOT / 'src'} is missing: dmlbench builds "
                         "the dmlscale libraries from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR.parent / "dmlbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "dmlbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(build_log, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                tail = build_log.read_text()[-3000:]
                raise BenchError(f"build step {' '.join(step)} failed "
                                 f"({code}):\n{tail}")


def driver(args, timeout=RUN_TIMEOUT_S):
    try:
        proc = subprocess.run([str(DRIVER)] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"dmlbench {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"dmlbench {' '.join(args)} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return proc


def fresh_dir(name):
    out = RESULTS_DIR / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


def median_setup_seconds(workload, seed):
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        driver(["--mode=setup", f"--workload={workload}", f"--seed={seed}"])
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def load_result(out_dir, seed):
    result = json.loads((out_dir / "result.json").read_text())
    provenance = result["provenance"]
    if provenance["build_type"] != "Release" or provenance["asserts"]:
        raise BenchError(f"refusing timings from a non-Release build: "
                         f"{provenance}")
    provenance["git_commit"] = git_commit()
    attempted, failed, problems = check.check_entries(
        result["entries"], out_dir, use_reference=seed == DEFAULT_SEED)
    for problem in problems[:20]:
        log("check failed: " + problem)
    return result, attempted, failed


def run_workload(workload, seed, seconds):
    """The untraced run: end-to-end metrics only."""
    out_dir = fresh_dir(f"{workload}-seed{seed}")
    setup_s = median_setup_seconds(workload, seed)
    driver(["--mode=run", f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--out={out_dir}"])
    result, attempted, failed = load_result(out_dir, seed)
    serial = [e["serial"]["seconds"] for e in result["entries"]]
    parallel = [e["parallel"]["seconds"] for e in result["entries"]]
    values = {
        "serial_s": statistics.median(serial),
        "parallel_s": statistics.median(parallel),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    extra = {"reps": result["reps"], "setup_spawns": SETUP_SPAWNS}
    return out_dir, result["provenance"], values, attempted, failed, extra


def run_traced(seed):
    """The traced run: every layer group once; per-layer metrics only."""
    out_dir = fresh_dir(f"trace-seed{seed}")
    driver(["--mode=trace", f"--seed={seed}", f"--out={out_dir}"])
    result, attempted, failed = load_result(out_dir, seed)
    extra = {"trace_file": str(out_dir / result["trace_file"])}
    return out_dir, result["provenance"], result["metrics"], attempted, \
        failed, extra


def declared_metrics():
    path = REPO_ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {
        "end_to_end": {m["name"]: (m["unit"], m["better"])
                       for m in spec["end_to_end"]},
        "per_layer": {m["name"]: (m["unit"], m["better"])
                      for m in spec["per_layer"]},
    }


def name_mismatches():
    """Differences between the tables above and BENCHMARK.json."""
    declared = declared_metrics()
    if declared is None:
        return ["BENCHMARK.json is missing"]
    out = []
    for kind, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for name in table.keys() - declared[kind].keys():
            out.append(f"{kind}: {name} is printed but not in BENCHMARK.json")
        for name in declared[kind].keys() - table.keys():
            out.append(f"{kind}: {name} is in BENCHMARK.json but not printed")
        for name in table.keys() & declared[kind].keys():
            if table[name] != declared[kind][name]:
                out.append(f"{kind}: {name} is {table[name]} here but "
                           f"{declared[kind][name]} in BENCHMARK.json")
    return out


def measure(workload, seed, seconds, trace):
    """One run; prints the named metrics, then the JSON result line."""
    table = PER_LAYER if trace else END_TO_END
    if trace:
        out_dir, provenance, values, attempted, failed, extra = \
            run_traced(seed)
    else:
        out_dir, provenance, values, attempted, failed, extra = \
            run_workload(workload, seed, seconds)
    if values.keys() != table.keys():
        raise BenchError(f"the driver measured {sorted(values)}, expected "
                         f"{sorted(table)}")
    mismatches = name_mismatches()
    if mismatches:
        raise BenchError("metric names disagree with BENCHMARK.json: " +
                         "; ".join(mismatches))
    provenance.update(workload=workload, seed=seed, trace=trace, **extra)
    metrics = {name: {"value": values[name], "unit": table[name][0]}
               for name in table}
    failed_frac = failed / attempted if attempted else 1.0
    summary = {"provenance": provenance, "correct": failed == 0,
               "attempted": attempted, "failed": failed,
               "failed_frac": failed_frac, "metrics": metrics}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} failed_frac = {failed_frac:.6g} ({failed}/{attempted} "
          "operations)")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}), flush=True)
    return summary


def run_all(seconds):
    build()
    summaries = {w: measure(w, DEFAULT_SEED, seconds, 0) for w in WORKLOADS}
    measure("all", DEFAULT_SEED, seconds, 1)
    print()
    names = list(END_TO_END) + ["failed_frac"]
    print(f"{'workload':<12} " + " ".join(f"{n:>14}" for n in names))
    for workload, summary in summaries.items():
        cells = [f"{summary['metrics'][n]['value']:.4g} "
                 f"{summary['metrics'][n]['unit']}" for n in END_TO_END]
        cells.append(f"{summary['failed_frac']:.4g}")
        print(f"{workload:<12} " + " ".join(f"{c:>14}" for c in cells))
    return all(s["correct"] for s in summaries.values())


def spread(workloads, runs, seconds):
    """Each workload with seeds 1..runs: per end-to-end metric the median,
    the quartiles and (q3 - q1) / median, next to its bound."""
    build()
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    rows = []
    for workload in workloads:
        summaries = [measure(workload, seed, seconds, 0)
                     for seed in range(1, runs + 1)]
        for name in END_TO_END:
            values = [s["metrics"][name]["value"] for s in summaries]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows.append((workload, name, median, q1, q3,
                         (q3 - q1) / median, bounds.get(name)))
        failed = sum(s["failed"] for s in summaries)
        attempted = sum(s["attempted"] for s in summaries)
        rows.append((workload, "failed_frac", failed / attempted, None, None,
                     None, None))
    def cell(value, spec):
        return "" if value is None else format(value, spec)

    print()
    print(f"{'workload':<12} {'metric':<12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}   ({runs} runs each)")
    for workload, name, median, q1, q3, share, bound in rows:
        print(f"{workload:<12} {name:<12} {cell(median, '10.4g')} "
              f"{cell(q1, '10.4g'):>10} {cell(q3, '10.4g'):>10} "
              f"{cell(share, '7.3f'):>7} {cell(bound, '6.2f'):>6}")


def capture_reference():
    """Writes dmlbench/reference/ from the default-seed serial outputs."""
    build()
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        out_dir = fresh_dir(f"reference-{workload}")
        driver(["--mode=run", f"--workload={workload}",
                f"--seed={DEFAULT_SEED}", "--seconds=0", f"--out={out_dir}"])
        result = json.loads((out_dir / "result.json").read_text())
        source = out_dir / result["entries"][0]["serial"]["file"]
        target = check.REFERENCE_DIR / f"{workload}{source.suffix}"
        shutil.copyfile(source, target)
        log(f"wrote {target.relative_to(REPO_ROOT)}")


def self_test():
    """The checker must flag perturbed outputs, and the printed metric
    names must match BENCHMARK.json both ways."""
    failures = list(name_mismatches())

    def expect(flagged, what):
        if not flagged:
            failures.append(f"the checker missed {what}")

    csv_text = check.reference_for("paper-sweep", "csv")
    ring_text = check.reference_for("engine-10k", "json")
    if csv_text is None or ring_text is None:
        failures.append("reference outputs are missing")
    else:
        if check.check_sweep_csv(csv_text, csv_text, csv_text):
            failures.append("the checker flags the reference sweep itself")
        lines = csv_text.splitlines(keepends=True)
        fields = lines[1].split(",")
        column = lines[0].split(",").index("t_ref_s")
        fields[column] = f"{float(fields[column]) * 1.01:.6g}"
        altered = lines[0] + ",".join(fields) + "".join(lines[2:])
        expect(check.check_sweep_csv(altered, None, csv_text),
               "one altered CSV number against the reference")
        expect(check.check_sweep_csv(altered, csv_text, None),
               "one altered CSV number against the serial run")

        if check.check_json(ring_text, ring_text, ring_text):
            failures.append("the checker flags the reference ring itself")
        ring = json.loads(ring_text)
        ring["events"] += 1
        expect(check.check_json(json.dumps(ring)),
               "a wrong event count (invariant)")
        expect(check.check_json(json.dumps(ring), None, ring_text),
               "a wrong event count against the reference")
        ring = json.loads(ring_text)
        ring["seconds"] *= 1 + 1e-13
        if check.check_json(json.dumps(ring), None, ring_text):
            failures.append("the checker rejects a low-order-bit change")
        ring["seconds"] *= 1.001
        expect(check.check_json(json.dumps(ring), None, ring_text),
               "a 0.1% change in a double")
    for failure in failures:
        log("self-test: " + failure)
    print(f"self-test: {'FAILED' if failures else 'ok'} "
          f"({len(failures)} problem(s))")
    return not failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--spread", type=int, metavar="RUNS")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if args.capture_reference:
            capture_reference()
            return 0
        if args.all:
            return 0 if run_all(args.seconds) else 1
        if args.spread:
            spread([args.workload] if args.workload else WORKLOADS,
                   args.spread, args.seconds)
            return 0
        if args.workload is None:
            parser.error("one of --workload, --all, --self-test or "
                         "--capture-reference is required")
        build()
        measure(args.workload, args.seed, args.seconds, args.trace)
        return 0
    except BenchError as error:
        log(f"dmlbench: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""geomap wall-clock benchmark: build, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload map_large_n --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a CMake project over the library sources in src/)
into $CARGO_TARGET_DIR (default .bench_build), runs the workload in its
own process, prints a human-readable report, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 the workload runs twice, untraced and then traced, and the
metrics are the per_layer list. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("map_large_n", "map_many_sites", "storm_recover")
# Per process; a traced run starts two, and the command must end within
# 180 s once built.
RUN_TIMEOUT_S = 80

# Units of the workload-specific names the end-to-end metrics stand for.
NAMED_UNITS = {
    "setup_s": "s",
    "map_s": "s",
    "evaluate_s": "s",
    "improvement_pct": "%",
    "replay_makespan_s": "s",
    "storm_case_s": "s",
    "recover_s": "s",
    "reference_s": "s",
    "storm_drain_s": "s",
    "p99_stretch": "ratio",
    "mean_stretch": "ratio",
    "peak_rss_mib": "MiB",
    "error_rate": "ratio",
}


# Named times that are simulated, not measured: no tracing overhead.
SIMULATED = {"replay_makespan_s", "storm_drain_s"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure and build the benchmark binary; returns its path."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "geomap_perfbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "geomap_perfbench")


def run_binary(binary, out, args, traced):
    """Run one workload process and return its parsed result object."""
    tag = "%s-seed%d-%s" % (args.workload, args.seed,
                            "traced" if traced else "untraced")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)),
           "--trace", "1" if traced else "0",
           "--work-dir", os.path.join(out, "work", "%d-%s" % (os.getpid(), tag))]
    if traced:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out, "traces", tag + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (tag, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (tag, proc.returncode))
    return json.loads(lines[-1])


def unit_of(name, units):
    if name in units:
        return units[name]
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def fmt(value):
    return "%.6g" % value


def print_fingerprint(res):
    fp = res["fingerprint"]
    print("fingerprint: nproc=%d workers=%d cpu=%r compiler=%r build=%s "
          "git=%s" % (fp["nproc"], fp["workers"], fp["cpu_model"],
                      fp["compiler"], fp["build_type"], fp["git_describe"]))


def report_untraced(res):
    print("workload %s, seed %d: %d operations, %d failed"
          % (res["workload"], res["seed"], res["attempted"], res["failed"]))
    print_fingerprint(res)
    for name, value in sorted(res["named"].items()):
        line = "  %-20s %14s %s" % (name, fmt(value), NAMED_UNITS[name])
        samples = res["samples"].get(name)
        if samples:
            line += "   (%d samples; min %s, max %s)" % (
                len(samples), fmt(min(samples)), fmt(max(samples)))
        print(line)
    if "reference_s" in res["named"]:
        # Single-threaded times are reported rescaled to a reference host.
        print("end-to-end (single-threaded times rescaled):")
        for name, value in sorted(res["end_to_end"].items()):
            print("  %-20s %14s" % (name, fmt(value)))
    for failure in res["failures"]:
        print("  FAILED: " + failure)


def report_traced(untraced, traced, units):
    print("traced run of %s, seed %d" % (traced["workload"], traced["seed"]))
    print_fingerprint(traced)
    print("spans (median over calls): name, parent, calls, total s, self s")
    for s in traced["spans"]:
        print("  %-28s %-14s %5d %12s %12s"
              % (s["name"], s["parent"] or "-", s["count"],
                 fmt(s["median_s"]), fmt(s["median_self_s"])))
    print("per-layer metrics:")
    for name, value in sorted(traced["per_layer"].items()):
        print("  %-28s %14s %s" % (name, fmt(value), unit_of(name, units)))
    print("re-fold against the untraced run: parts, residual")
    for name, parts in sorted(traced["refold"].items()):
        whole = untraced["named"][name]
        covered = sum(traced["per_layer"][p] for p in parts)
        print("  %-14s %10s s = %s + residual %s s (%.1f%%)"
              % (name, fmt(whole), " + ".join(parts), fmt(whole - covered),
                 100.0 * (whole - covered) / whole))
    print("tracing overhead (traced - untraced):")
    for name, value in sorted(untraced["named"].items()):
        if NAMED_UNITS[name] == "s" and name not in SIMULATED:
            print("  %-20s %+12s s" % (name, fmt(traced["named"][name] - value)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build_dir()
    binary = build(out)

    untraced = run_binary(binary, out, args, traced=False)
    if args.trace == 0:
        report_untraced(untraced)
        runs = [untraced]
        metrics = {m["name"]: {"value": untraced["end_to_end"][m["name"]],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        traced = run_binary(binary, out, args, traced=True)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report_traced(untraced, traced, units)
        runs = [untraced, traced]
        metrics = {}
        for m in spec["per_layer"]:
            # Layers a workload does not exercise (the control plane on a
            # map workload) report zero work.
            value = traced["per_layer"].get(m["name"])
            if value is None:
                if m["unit"] == "s":
                    fail("%s did not measure %s" % (args.workload, m["name"]))
                value = 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

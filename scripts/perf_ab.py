#!/usr/bin/env python3
"""Same-host A/B comparison of two commits on one perfbench workload.

Usage, from anywhere inside the repository:

    scripts/perf_ab.py BASE HEAD --workload W --seeds 1,2,3 --pairs K [--seconds S]

BASE and HEAD are commits (any name git rev-parse accepts). Each side is
exported with `git archive` into a temporary directory and built by its
own `perfbench/run.py` in its own CARGO_TARGET_DIR. Pair i runs seed
seeds[i % len(seeds)] on both sides, BASE first when i is even and HEAD
first when i is odd, so slow drift of the host cancels out.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the median HEAD/BASE ratio of the pairs with its
min-max, and the pairs HEAD won (ties count for neither side). A gain
is claimable when HEAD wins at least nine tenths of the pairs and its
median beats BASE's by more than BASE's interquartile range.

It refuses to run when perfbench/ or BENCHMARK.json differ between the
two commits: then the benchmark is not the same. The exported trees and
builds live under one temporary directory, removed on exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

BENCH_PATHS = ["perfbench", "BENCHMARK.json"]


def fail(message):
    print("perf_ab: " + message, file=sys.stderr)
    sys.exit(2)


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(root, sha, dest):
    """Writes the tree of commit `sha` into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        fail("git archive %s failed" % sha)


def run_side(tree, build, args, seed):
    """One perfbench run; returns (result object or None, fingerprint)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((l for l in lines if l.startswith("fingerprint:")), "")
    if proc.returncode != 0 or not lines:
        return None, fingerprint
    return json.loads(lines[-1]), fingerprint


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(value):
    return "%.6g" % value


def report(spec, pairs):
    print("\n%-14s %-36s %-36s %-26s %s" % (
        "metric", "BASE median [q1, q3]", "HEAD median [q1, q3]",
        "HEAD/BASE median [min, max]", "HEAD won"))
    for m in spec["end_to_end"]:
        name = m["name"]
        base = [p[0]["metrics"][name]["value"] for p in pairs]
        head = [p[1]["metrics"][name]["value"] for p in pairs]
        bq = quartiles(base)
        hq = quartiles(head)
        ratios = [h / b if b != 0 else float("nan") for b, h in zip(base, head)]
        lower = m["better"] == "lower"
        won = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        lost = sum(1 for b, h in zip(base, head) if (h > b if lower else h < b))
        spread = bq[2] - bq[0]
        gain = bq[1] - hq[1] if lower else hq[1] - bq[1]
        verdict = ("claimable gain" if won * 10 >= 9 * len(pairs) and
                   gain > spread else "no claim")
        print("%-14s %-36s %-36s %-26s %d/%d (lost %d); |median diff| %s vs "
              "BASE IQR %s: %s" % (
                  name,
                  "%s [%s, %s]" % (fmt(bq[1]), fmt(bq[0]), fmt(bq[2])),
                  "%s [%s, %s]" % (fmt(hq[1]), fmt(hq[0]), fmt(hq[2])),
                  "%.3f [%.3f, %.3f]" % (statistics.median(ratios),
                                         min(ratios), max(ratios)),
                  won, len(pairs), lost, fmt(abs(hq[1] - bq[1])), fmt(spread),
                  verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated run seeds, used in turn")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds or args.pairs < 1:
        fail("need at least one seed and one pair")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    shas = [git(root, "rev-parse", "--verify", rev + "^{commit}")
            for rev in (args.base, args.head)]
    if subprocess.run(["git", "-C", root, "diff", "--quiet", shas[0], shas[1],
                       "--"] + BENCH_PATHS).returncode != 0:
        fail("%s differs between %s and %s: not the same benchmark"
             % (" or ".join(BENCH_PATHS), args.base, args.head))

    work = tempfile.mkdtemp(prefix="perf_ab-")
    # A terminated run still removes its trees and builds.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        trees = []
        for label, sha in zip(("base", "head"), shas):
            tree = os.path.join(work, label, "src")
            export(root, sha, tree)
            trees.append((tree, os.path.join(work, label, "build")))
        with open(os.path.join(trees[1][0], "BENCHMARK.json")) as f:
            spec = json.load(f)

        print("BASE %s (%s)\nHEAD %s (%s)\nworkload %s, seeds %s, %d pairs, "
              "--seconds %s" % (shas[0], args.base, shas[1], args.head,
                                args.workload, args.seeds, args.pairs,
                                fmt(args.seconds)))
        pairs = []
        failures = [0, 0]
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = [None, None]
            for side in order:
                res, fingerprint = run_side(trees[side][0], trees[side][1],
                                            args, seed)
                if i == 0 and side == order[0] and fingerprint:
                    print(fingerprint)
                if res is None or not res["correct"]:
                    failures[side] += 1
                results[side] = res
            if None in results:
                print("pair %d (seed %d): a run failed; pair dropped" % (i, seed))
                continue
            pairs.append(results)
            print("pair %d (seed %d, %s first): %s" % (
                i, seed, "BASE" if order[0] == 0 else "HEAD",
                "  ".join("%s %s/%s" % (m["name"],
                                         fmt(results[0]["metrics"][m["name"]]["value"]),
                                         fmt(results[1]["metrics"][m["name"]]["value"]))
                          for m in spec["end_to_end"])))
            sys.stdout.flush()
        print("runs not correct or failed: BASE %d, HEAD %d" % tuple(failures))
        if pairs:
            report(spec, pairs)
        return 1 if failures[0] or failures[1] or not pairs else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

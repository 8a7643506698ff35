#!/usr/bin/env python3
"""The repository benchmark: builds the program from source and runs one
workload, or all of them.

One run (the interface BENCHMARK.json declares; run from the root of a checkout):

    python3 perfbench/run.py --workload engine-2d --seed 1 --seconds 10 --trace 0

prints the driver's log lines ("# ..."), every metric with its unit, and
as the last line one JSON object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics BENCHMARK.json names,
--trace 1 the per-layer ones. The exit code is non-zero when an answer
differs from the reference (the JSON still prints), and when the run is
refused, invalid or broken (nothing prints).

Other modes:

    python3 perfbench/run.py --all [--trace 0|1] [--seed N] [--seconds S]
        every workload in turn; writes <build dir>/perfbench-results.json
        and, with --trace 1, checks each workload's reason for existing
        (the shares listed in perfbench/README.md).
    python3 perfbench/run.py --smoke
        each workload briefly, untraced and traced, checking that every
        metric BENCHMARK.json names is present and finite.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; scratch files go to a work directory inside it and are
removed afterwards.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# engine-2d's traced run also carries the remote-serving layers (see
# driver.cc).
WORKLOADS = ["engine-2d", "feedback-9d", "live-churn"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class Refused(Exception):
    """The benchmark cannot or must not run here."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def source_digest():
    """sha256 over the sources the benchmark builds, for result records."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    files = [os.path.join(ROOT, "tools", name)
             for name in ("gprq_server.cc", "gprq_coordinator.cc")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id():
    label = "src-sha256:" + source_digest()
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                label = "git:" + head.stdout.strip() + "," + label
        except (OSError, subprocess.SubprocessError):
            pass
    return label


def build():
    for needed in ("src/CMakeLists.txt", "tools/gprq_server.cc",
                   "tools/gprq_coordinator.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise Refused("gprq sources not found: %s is missing" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:] + done.stderr[-4000:])
            raise Refused("build failed: " + " ".join(step))
    return out


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        return json.load(handle)


def run_driver(binaries, workload, seed, seconds, trace, commit):
    """Runs one workload; returns (exit code, log lines, result dict)."""
    work = os.path.join(binaries, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [os.path.join(binaries, "perfbench_driver"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", work, "--bin-dir", binaries, "--commit", commit]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise Refused("%s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    result = None
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    return proc.returncode, lines, result


def select(result, benchmark, trace):
    """Keeps exactly the metrics BENCHMARK.json names for this mode."""
    wanted = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    metrics = {}
    for spec in wanted:
        metric = result["metrics"].get(spec["name"])
        if metric is None or not math.isfinite(metric["value"]):
            raise Refused("metric %s missing or not finite" % spec["name"])
        if metric["unit"] != spec["unit"]:
            raise Refused("metric %s has unit %s, BENCHMARK.json says %s"
                          % (spec["name"], metric["unit"], spec["unit"]))
        metrics[spec["name"]] = metric
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def why_checks(workload, metrics):
    """Each workload's stated reason, checked on its traced run."""
    value = lambda name: metrics[name]["value"]
    if workload == "engine-2d":
        share = value("mc.phase3_us") / max(1e-9, 1e3 * value("cache.miss_ms"))
        return [("Phase 3 >= 90%% of query time (%.3f)" % share, share >= 0.9),
                ("no cache hits", value("cache.hit_exact_frac") == 0
                 and value("cache.hit_semantic_frac") == 0),
                ("remote half: shard.routed_frac < 1 (%.3f)"
                 % value("shard.routed_frac"), value("shard.routed_frac") < 1)]
    if workload == "feedback-9d":
        return [("exact and semantic hits",
                 value("cache.hit_exact_frac") > 0
                 and value("cache.hit_semantic_frac") > 0),
                ("evictions", value("cache.evictions_per_query") > 0)]
    return [(">= 3 checkpoints (%g)" % value("storage.checkpoints"),
             value("storage.checkpoints") >= 3)]


def run_one(binaries, benchmark, commit, workload, seed, seconds, trace):
    code, lines, result = run_driver(binaries, workload, seed, seconds, trace,
                                     commit)
    for line in lines:
        print(line)
    if result is None:
        raise Refused("%s exited %d without a result" % (workload, code))
    selected = select(result, benchmark, trace)
    for name, metric in sorted(selected["metrics"].items()):
        print("# %s %s = %.6g %s" % (workload, name, metric["value"],
                                     metric["unit"]))
    return code, selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if sum([args.workload is not None, args.all, args.smoke]) != 1:
        parser.error("give exactly one of --workload, --all, --smoke")

    try:
        for name in ("GPRQ_FAILPOINTS", "GPRQ_SIMD_KERNEL"):
            if name in os.environ:
                raise Refused("%s is set; unset it to benchmark" % name)
        benchmark = load_spec()
        seconds = args.seconds or benchmark["run_seconds"]
        binaries = build()
        commit = commit_id()

        if args.workload:
            code, selected = run_one(binaries, benchmark, commit,
                                     args.workload, args.seed, seconds,
                                     args.trace)
            print(json.dumps(selected))
            return code

        runs = []
        if args.smoke:
            runs = [(w, t, 2.0) for w in WORKLOADS for t in (0, 1)]
        else:
            runs = [(w, args.trace, seconds) for w in WORKLOADS]
        worst = 0
        records = {}
        for workload, trace, run_seconds in runs:
            code, selected = run_one(binaries, benchmark, commit, workload,
                                     args.seed, run_seconds, trace)
            worst = max(worst, code)
            records["%s/trace%d" % (workload, trace)] = selected
            if trace and not args.smoke:
                for label, holds in why_checks(workload, selected["metrics"]):
                    print("# why %s: %s %s" % (workload, label,
                                               "holds" if holds else "FAILS"))
                    worst = worst if holds else max(worst, 1)
        if args.all:
            path = os.path.join(binaries, "perfbench-results.json")
            with open(path, "w") as handle:
                json.dump({"commit": commit, "seed": args.seed,
                           "seconds": seconds, "results": records},
                          handle, indent=1, sort_keys=True)
            print("# results written to %s" % path)
        print("# %s: %s" % ("smoke" if args.smoke else "all",
                            "ok" if worst == 0 else "FAILED"))
        return worst
    except Refused as refusal:
        log("perfbench: " + str(refusal))
        return 2


if __name__ == "__main__":
    sys.exit(main())

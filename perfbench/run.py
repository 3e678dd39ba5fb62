#!/usr/bin/env python3
"""End-to-end benchmark of the snnmap mapping flow and co-simulator.

Run from the repository root:

    python3 perfbench/run.py --workload flow_pso_hd --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/CMakeLists.txt (the snnmap
library from src/ plus the harness in perfbench.cpp) in an optimised build
under $CARGO_TARGET_DIR (default .bench_build) and reuses it afterwards.
With --trace 0 the result carries BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics, and the traced run's spans are written as
Chrome trace JSON to <build dir>/trace-<workload>.json.  The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"}.

--self-check runs every workload at reduced size and checks that every named
metric is emitted, that the outputs pass their checks (in a traced run these
include that spans nest through their parent ids and that their self times
are non-negative and add up to each traced pass), and that the written span
file nests; it reports the share of each traced pass no layer span covers.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "snnmap_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then brings the binary up to date; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no snnmap sources under %s/src" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", BINARY, "-j", "2"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, BINARY)


def run_binary(binary, args):
    """Runs the harness binary; returns (info lines, parsed result)."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (BINARY, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (BINARY, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: " + lines[-1])
    return lines[:-1], result


def compose(spec, result, trace):
    """The contract's result object: BENCHMARK.json's metrics for the mode,
    with their units.  A per-layer metric of a stage that is not on this
    workload's path reads 0; an end-to-end metric must always be measured."""
    section = "per_layer" if trace else "end_to_end"
    values = result["values"]
    metrics = {}
    absent = []
    for m in spec[section]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif trace:
            value = 0
            absent.append(name)
        else:
            fail("end-to-end metric %s was not measured" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        fail("measured metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    out = {"correct": bool(result["correct"]),
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    return out, absent


def measure(args, spec):
    binary = build()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace-%s.json" % args.workload)]
    info, result = run_binary(binary, cmd)
    out, absent = compose(spec, result, args.trace)
    for line in info:
        print(line)
    if absent:
        print("# not on this workload's path (reported as 0): " + ", ".join(absent))
    print(json.dumps(out))


def check_chrome_trace(path):
    """Re-reads the written span file the way a trace viewer would: every
    parent id must name an earlier span whose interval holds the child.
    Returns (problems, share of each traced pass no layer span covers).
    Self times and their sum are checked by the harness on every traced run."""
    events = [e for e in load_json(path)["traceEvents"] if e.get("ph") == "X"]
    by_id = {e["args"]["id"]: e for e in events}
    child_us = {}
    problems = []
    slack = 0.002  # timestamps are written to the nanosecond
    for e in events:
        sid, parent = e["args"]["id"], e["args"]["parent"]
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None or parent >= sid:
            problems.append("span %s has no earlier parent %s" % (sid, parent))
        elif e["ts"] < p["ts"] - slack or e["ts"] + e["dur"] > p["ts"] + p["dur"] + slack:
            problems.append("span %s lies outside its parent %s" % (sid, parent))
        else:
            child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
    passes = [e for e in events if e["name"] == "pass" and e["args"]["parent"] is None]
    if not passes:
        problems.append("no traced pass")
    uncovered = [100.0 * (e["dur"] - child_us.get(e["args"]["id"], 0.0)) / e["dur"]
                 for e in passes if e["dur"] > 0]
    return problems, uncovered


def self_check(spec):
    binary = build()
    problems = []
    described = load_json(os.path.join(HERE, "metrics.json"))["metrics"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not described.get(name, {}).get("layer"):
            problems.append("metrics.json gives no layer for " + name)
    for name in sorted(set(described) - set(names)):
        problems.append("metrics.json describes unknown metric " + name)
    measured_somewhere = set()
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            trace_path = os.path.join(build_dir(), "selfcheck-%s.json" % name)
            cmd = ["--workload", name, "--seed", "7", "--seconds", "0.5",
                   "--trace", str(trace), "--reduced"]
            if trace:
                cmd += ["--trace-out", trace_path]
            _, result = run_binary(binary, cmd)
            out, absent = compose(spec, result, trace)
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append("%s trace=%d: outputs failed their checks" % (name, trace))
            measured_somewhere |= set(result["values"])
            if trace:
                span_problems, uncovered = check_chrome_trace(trace_path)
                problems += ["%s: %s" % (name, p) for p in span_problems]
                print("%-18s traced passes %d, uncovered by layer spans: %s"
                      % (name, len(uncovered),
                         " ".join("%.2f%%" % u for u in uncovered)))
            else:
                zero = [m for m, v in out["metrics"].items() if v["value"] == 0]
                if zero:
                    problems.append("%s: end-to-end metrics read 0: %s" % (name, zero))
    never = [n for n in names if n not in measured_somewhere]
    if never:
        problems.append("never measured on any workload: " + ", ".join(never))
    for p in problems:
        print("FAIL " + p)
    print("self-check %s" % ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.self_check:
        self_check(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seed < 0:
        fail("--seed must be >= 0")
    measure(args, spec)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-tests for snnmap-lint: every rule must fire on its seeded-violation
fixture (exact line accounting, so a silently dead rule fails here) and stay
quiet on the clean fixture that exercises every waiver/gating shape.

Run directly or via CTest (`lint.selftest`).  Exit 0 on success.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
LINT = HERE / "snnmap_lint.py"
CASES = HERE / "tests" / "cases"

# case directory -> (rules to run, expected exit, expected finding anchors).
# Anchors are "path:line" prefixes that must each appear exactly once; the
# total finding count must equal the anchor count.
EXPECTATIONS = {
    "clean": (None, 0, []),
    "nondeterminism_bad": (["nondeterminism"], 1, [
        "src/bad.cpp:3",    # include <random>
        "src/bad.cpp:4",    # include <chrono>
        "src/bad.cpp:9",    # random_device
        "src/bad.cpp:10",   # mt19937
        "src/bad.cpp:11",   # uniform_int_distribution
        "src/bad.cpp:16",   # steady_clock
        "src/bad.cpp:21",   # srand
        "src/bad.cpp:22",   # bare waiver without justification
        "src/bad.cpp:23",   # rand() (the bare waiver must not silence it)
        "src/bad.cpp:26",   # getenv
    ]),
    "unordered_bad": (["unordered-iteration"], 1, [
        "src/bad.cpp:8",    # unordered_set declaration
        "src/bad.cpp:9",    # unordered_map declaration
        "src/bad.cpp:11",   # range-for over unordered_set
        "src/bad.cpp:14",   # iterator walk via .begin()
    ]),
    "hoisted_bad": (["hoisted-gate"], 1, [
        "src/bad.cpp:7",    # record gated on the wrong flag
        "src/bad.cpp:9",    # ungated fault-mask consult
    ]),
    "hoisted_good": (["hoisted-gate"], 0, []),
    "ci_sync_bad": (["ci-bench-sync"], 1, [
        "bench/CMakeLists.txt:4",  # beta_benchmarks never asserted
        "scripts/ci.sh:1",         # phantom_benchmarks has no target
    ]),
    "test_only_bad": (["test-only-api"], 1, [
        "src/lib/api.hpp:12",  # class used only by its own members and tests
        "src/lib/api.hpp:20",  # free function only its definition names
        "src/lib/api.hpp:26",  # template named only in a string literal
        "src/lib/api.hpp:30",  # self-recursion is not a caller
        "src/lib/api.hpp:33",  # the bare waiver does not silence it
    ]),
}


def run_case(case, rules):
    cmd = [sys.executable, str(LINT), "--repo", str(CASES / case)]
    for rule in rules or []:
        cmd += ["--rule", rule]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    findings = [line for line in proc.stdout.splitlines() if line.strip()]
    return proc.returncode, findings


def main():
    failures = []
    for case, (rules, want_exit, anchors) in sorted(EXPECTATIONS.items()):
        code, findings = run_case(case, rules)
        if code != want_exit:
            failures.append(
                f"{case}: exit {code}, expected {want_exit}; findings:\n  "
                + "\n  ".join(findings))
            continue
        if len(findings) != len(anchors):
            failures.append(
                f"{case}: {len(findings)} findings, expected "
                f"{len(anchors)}:\n  " + "\n  ".join(findings))
            continue
        remaining = list(findings)
        for anchor in anchors:
            hit = next((f for f in remaining if anchor + ":" in f), None)
            if hit is None:
                failures.append(f"{case}: no finding at {anchor}; got:\n  "
                                + "\n  ".join(findings))
                break
            remaining.remove(hit)
        print(f"ok: {case} ({len(anchors)} expected finding(s))")
    if failures:
        print("\nFAIL", file=sys.stderr)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    print("snnmap-lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

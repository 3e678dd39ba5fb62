#!/usr/bin/env python3
"""snnmap-lint: repo-specific determinism and contract checks.

The dynamic test suite (golden fixtures, serial-vs-parallel determinism
tests) can only catch a nondeterminism bug once an input exposes it; these
rules reject the *source patterns* that produce such bugs, at lint time:

  nondeterminism       No wall-clock, rand()/random_device, std::<random>
                       distributions, or environment reads in src/.  Every
                       stochastic or time-like input must flow through the
                       fully-specified util::Rng / simulated cycle clock.
  unordered-iteration  Every declaration of std::unordered_map/set in src/
                       and every range-for / .begin() walk over one must
                       carry a waiver justifying that iteration order cannot
                       reach outputs, digests, or FP-summation order.
  hoisted-gate         Optional hot-path subsystems stay inert when off:
                       every tracer_.record(...) / fault_model_ call site
                       must sit under a hoisted `*_active_` (or local
                       `trace_on`) gate, so the default config pays no cost
                       and golden digests cannot shift.
  ci-bench-sync        The bench-binary list scripts/ci.sh asserts must
                       equal the Google-Benchmark targets declared in
                       bench/CMakeLists.txt (a silently-unbuilt suite would
                       pass CI while its BENCH_*.json trajectory rots).
  test-only-api        Every namespace-scope free function and class/struct
                       a src/**/*.hpp declares must be named somewhere a
                       program reaches it: in examples/, bench/ or
                       perfbench/, or in src/ outside its own declaration
                       and out-of-line definitions.  Code that only tests
                       call is library weight no flow uses.  The check is
                       by name; member functions are out of scope.

Waivers: a finding is silenced by a justification comment on the flagged
line or the line directly above it:

    // snnmap-lint: allow(<rule>) -- <why this cannot break determinism>

(`#` comments in shell/CMake files).  The justification text is mandatory;
a bare allow() does not waive.  For hoisted-gate, a waiver on an enclosing
block's header line (e.g. a function whose every call site is gated)
covers the whole block.

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ALL_RULES = (
    "nondeterminism",
    "unordered-iteration",
    "hoisted-gate",
    "ci-bench-sync",
    "test-only-api",
)

# Rules that walk every source file under src/ (src_files); only these need
# the directory.  ci-bench-sync reads scripts/ and bench/.
SRC_RULES = frozenset(("nondeterminism", "unordered-iteration",
                       "hoisted-gate", "test-only-api"))

WAIVER_RE = re.compile(
    r"(?://|#)\s*snnmap-lint:\s*allow\(([a-z-]+)\)\s*(?:--|—)\s*(\S.*)"
)
BARE_WAIVER_RE = re.compile(r"(?://|#)\s*snnmap-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def scan_waivers(raw_lines):
    """Maps 1-based line number -> set of waived rules (with justification).

    A waiver covers its own line and the line below it, matching the common
    shapes `code  // waiver` and `// waiver` above the flagged line.
    """
    waived = {}
    malformed = []
    comment_only = re.compile(r"\s*(?://|#)")
    for i, line in enumerate(raw_lines, start=1):
        m = WAIVER_RE.search(line)
        if m:
            # The waiver covers its own line, any immediately following
            # comment-only continuation lines, and the first code line after
            # them (the flagged line).
            end = i
            while end < len(raw_lines) and \
                    comment_only.match(raw_lines[end]):
                end += 1
            for covered in range(i, end + 2):
                waived.setdefault(covered, set()).add(m.group(1))
        elif BARE_WAIVER_RE.search(line):
            malformed.append(i)
    return waived, malformed


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literal contents, preserving
    line structure and column offsets so findings map back to source."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
            elif c == "'":
                state = "char"
                out.append(c)
            else:
                out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail to code to stay line-stable
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def line_of_offset(text, offset):
    return text.count("\n", 0, offset) + 1


CPP_SUFFIXES = (".cpp", ".hpp", ".h")


def src_files(repo):
    root = repo / "src"
    return sorted(p for p in root.rglob("*") if p.suffix in CPP_SUFFIXES)


def is_waived(waivers, line, rule):
    return rule in waivers.get(line, set())


# --------------------------------------------------------------------------
# Rule: nondeterminism
# --------------------------------------------------------------------------

NONDET_PATTERNS = (
    (re.compile(r"#\s*include\s*<random>"),
     "std::<random> distributions are implementation-defined; use util::Rng"),
    (re.compile(r"#\s*include\s*<chrono>"),
     "wall-clock time in src/ breaks replayability; use the simulated "
     "cycle clock"),
    (re.compile(r"\brandom_device\b"),
     "random_device is a nondeterminism source; seed util::Rng explicitly"),
    (re.compile(r"\bmt19937(?:_64)?\b"),
     "std::mt19937 streams differ across distribution implementations; "
     "use util::Rng"),
    (re.compile(r"\buniform_(?:int|real)_distribution\b"),
     "std:: distributions are implementation-defined; use util::Rng"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "wall-clock reads make runs irreproducible; use the simulated "
     "cycle clock"),
    (re.compile(r"\bsrand\s*\(|(?<![\w.])rand\s*\(\s*\)"),
     "rand()/srand() is seeded process state; use util::Rng"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\b"),
     "wall-clock reads make runs irreproducible"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time() is a nondeterminism source"),
    (re.compile(r"\bgetenv\b"),
     "environment reads make results depend on ambient state; thread "
     "settings through config_io"),
)


def rule_nondeterminism(repo):
    findings = []
    for path in src_files(repo):
        raw = path.read_text()
        raw_lines = raw.splitlines()
        waivers, malformed = scan_waivers(raw_lines)
        rel = path.relative_to(repo)
        for line in malformed:
            findings.append(Finding(rel, line, "nondeterminism",
                                    "waiver without justification text"))
        stripped = strip_comments_and_strings(raw)
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pattern, why in NONDET_PATTERNS:
                if pattern.search(line):
                    if is_waived(waivers, lineno, "nondeterminism"):
                        continue
                    findings.append(
                        Finding(rel, lineno, "nondeterminism", why))
    return findings


# --------------------------------------------------------------------------
# Rule: unordered-iteration
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set)\s*<")


def balanced_angle_end(text, open_idx):
    """Index just past the matching '>' for the '<' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";":
            return -1
    return -1


def rule_unordered_iteration(repo):
    findings = []
    for path in src_files(repo):
        raw = path.read_text()
        raw_lines = raw.splitlines()
        waivers, _ = scan_waivers(raw_lines)
        rel = path.relative_to(repo)
        stripped = strip_comments_and_strings(raw)

        tracked = set()
        for m in UNORDERED_DECL_RE.finditer(stripped):
            lineno = line_of_offset(stripped, m.start())
            end = balanced_angle_end(stripped, m.end() - 1)
            name = None
            if end > 0:
                nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(]",
                              stripped[end:end + 120])
                if nm:
                    name = nm.group(1)
            if name:
                tracked.add(name)
            if is_waived(waivers, lineno, "unordered-iteration"):
                continue
            findings.append(Finding(
                rel, lineno, "unordered-iteration",
                "unordered container declared; justify (waiver) that its "
                "iteration order cannot reach outputs, digests, or "
                "FP-summation order"))

        if not tracked:
            continue
        names = "|".join(sorted(tracked))
        iter_res = (
            re.compile(r"for\s*\([^();]*:\s*(" + names + r")\s*\)"),
            re.compile(r"\b(" + names + r")\s*\.\s*c?begin\s*\("),
        )
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pattern in iter_res:
                if pattern.search(line):
                    if is_waived(waivers, lineno, "unordered-iteration"):
                        continue
                    findings.append(Finding(
                        rel, lineno, "unordered-iteration",
                        "iteration over unordered container "
                        f"'{pattern.search(line).group(1)}': order can leak "
                        "into results; materialize sorted or waive with "
                        "justification"))
    return findings


# --------------------------------------------------------------------------
# Rule: hoisted-gate
# --------------------------------------------------------------------------

GATED_CALLS = (
    (re.compile(r"\btracer_?\s*\.\s*record\s*\("),
     ("trace_active_", "trace_on"),
     "tracer record call not under a hoisted trace gate"),
    (re.compile(r"\bfault_model_\s*\.\s*\w+\s*\("),
     ("faults_active_",),
     "fault-model call not under the hoisted faults_active_ gate"),
)

GATE_ASSIGN_RE = re.compile(r"\b\w+_active_\s*=[^=]")


def enclosing_headers(stripped):
    """Yields (offset, headers) state by walking the brace structure.

    Returns a list of (start_offset, end_offset, header_text, header_line)
    "block" records plus a function mapping offset -> list of enclosing
    header records, implemented as a closure over a precomputed event list.
    """
    events = []  # (offset, 'push'|'pop', header_text, header_line)
    stmt_start = 0
    for i, c in enumerate(stripped):
        if c == "{":
            header = stripped[stmt_start:i]
            lead = len(header) - len(header.lstrip())
            events.append((i, "push", header,
                           line_of_offset(stripped, stmt_start + lead)))
            stmt_start = i + 1
        elif c == "}":
            events.append((i, "pop", None, None))
            stmt_start = i + 1
        elif c == ";":
            stmt_start = i + 1
    return events


def rule_hoisted_gate(repo):
    findings = []
    for path in src_files(repo):
        raw = path.read_text()
        raw_lines = raw.splitlines()
        waivers, _ = scan_waivers(raw_lines)
        rel = path.relative_to(repo)
        stripped = strip_comments_and_strings(raw)

        matches = []  # (offset, lineno, gates, message)
        for pattern, gates, message in GATED_CALLS:
            for m in pattern.finditer(stripped):
                lineno = line_of_offset(stripped, m.start())
                matches.append((m.start(), lineno, gates, message))
        if not matches:
            continue
        matches.sort()

        events = enclosing_headers(stripped)
        ev_idx = 0
        stack = []  # (header_text, header_line)
        stmt_start = 0
        for offset, lineno, gates, message in matches:
            while ev_idx < len(events) and events[ev_idx][0] < offset:
                ev_offset, kind, header, header_line = events[ev_idx]
                if kind == "push":
                    stack.append((header, header_line))
                elif stack:
                    stack.pop()
                stmt_start = ev_offset + 1
                ev_idx += 1
            # Current partial statement (covers `if (gate && call())` and
            # the hoist assignment `x_active_ = fault_model_.active()`).
            semi = stripped.rfind(";", stmt_start, offset)
            stmt = stripped[semi + 1 if semi >= 0 else stmt_start:offset]
            ok = any(g in stmt for g in gates) or GATE_ASSIGN_RE.search(stmt)
            for header, header_line in stack:
                if ok:
                    break
                if any(g in header for g in gates):
                    ok = True
                elif is_waived(waivers, header_line, "hoisted-gate"):
                    ok = True
            if ok or is_waived(waivers, lineno, "hoisted-gate"):
                continue
            findings.append(Finding(rel, lineno, "hoisted-gate", message))
    return findings


# --------------------------------------------------------------------------
# Rule: ci-bench-sync
# --------------------------------------------------------------------------


def rule_ci_bench_sync(repo):
    findings = []
    ci = repo / "scripts" / "ci.sh"
    cmake = repo / "bench" / "CMakeLists.txt"
    if not ci.exists() or not cmake.exists():
        return [Finding(repo, 1, "ci-bench-sync",
                        "scripts/ci.sh or bench/CMakeLists.txt missing")]

    ci_text = ci.read_text().replace("\\\n", " ")
    m = re.search(r"for\s+bench\s+in\s+([^;]*);", ci_text)
    ci_list = set(m.group(1).split()) if m else set()
    if not ci_list:
        findings.append(Finding("scripts/ci.sh", 1, "ci-bench-sync",
                                "no `for bench in ...` assertion list found"))

    cmake_lines = cmake.read_text().splitlines()
    waivers, _ = scan_waivers(cmake_lines)
    cmake_targets = {}
    in_benchmark_block = False
    for lineno, line in enumerate(cmake_lines, start=1):
        if re.search(r"if\s*\(\s*benchmark_FOUND\s*\)", line):
            in_benchmark_block = True
        elif re.match(r"\s*(else|endif)\s*\(", line):
            in_benchmark_block = False
        am = re.search(r"add_executable\s*\(\s*([\w-]+)", line)
        if am and in_benchmark_block:
            if is_waived(waivers, lineno, "ci-bench-sync"):
                continue
            cmake_targets[am.group(1)] = lineno

    for target, lineno in sorted(cmake_targets.items()):
        if target not in ci_list:
            findings.append(Finding(
                "bench/CMakeLists.txt", lineno, "ci-bench-sync",
                f"benchmark target '{target}' is not asserted buildable by "
                "scripts/ci.sh (add it to the `for bench in` list or waive)"))
    for target in sorted(ci_list - set(cmake_targets)):
        findings.append(Finding(
            "scripts/ci.sh", 1, "ci-bench-sync",
            f"ci.sh asserts bench binary '{target}' but bench/CMakeLists.txt "
            "declares no such Google-Benchmark target"))
    return findings


# --------------------------------------------------------------------------
# Rule: test-only-api
# --------------------------------------------------------------------------

# Trees whose programs count as callers besides src/ itself; tests/ does not.
CALLER_DIRS = ("examples", "bench", "perfbench")

NAMESPACE_HEADER_RE = re.compile(r"^(?:inline\s+)?namespace\b")
CLASS_HEADER_RE = re.compile(r"^(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?"
                             r"([A-Za-z_]\w*)")
# The declarator of a function: an optionally qualified name followed by its
# parameter list.  Group 1 is the qualifier chain ("Foo::" or empty).
DECLARATOR_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*)(~?[A-Za-z_]\w*)\s*\(")
NOT_A_FUNCTION = ("using", "typedef", "static_assert", "friend", "enum",
                  "concept", "extern")
CPP_KEYWORDS = frozenset(("operator", "decltype", "alignas", "noexcept",
                          "sizeof", "alignof", "requires", "return"))


def blank_preprocessor(stripped):
    """Blanks preprocessor lines (and their continuations) in stripped text,
    so an #include cannot glue itself onto the declaration below it."""
    out = []
    continued = False
    for line in stripped.split("\n"):
        if continued or line.lstrip().startswith("#"):
            continued = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            out.append(line)
    return "\n".join(out)


def matching_brace(text, open_idx):
    """Index of the '}' that closes the '{' at open_idx (len(text) if none)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def strip_template_prefix(header):
    """Drops leading `template <...>` clauses and [[attributes]]."""
    while True:
        header = header.lstrip()
        if header.startswith("[["):
            end = header.find("]]")
            if end < 0:
                return header
            header = header[end + 2:]
        elif re.match(r"template\s*<", header):
            end = balanced_angle_end(header, header.index("<"))
            if end < 0:
                return header
            header = header[end:]
        else:
            return header


def namespace_items(stripped):
    """Yields (kind, name, qualifier, name_offset, start, end) for every
    namespace-scope class definition ("class") and function declaration or
    definition ("function") in stripped, preprocessor-free text.  [start,
    end) spans the whole item, body included."""
    i, n = 0, len(stripped)
    stmt = 0
    while i < n:
        c = stripped[i]
        if c == "}":  # closes a namespace block
            stmt = i + 1
        elif c == ";":
            yield from classify_item(stripped, stmt, i, i + 1, has_body=False)
            stmt = i + 1
        elif c == "{":
            header = stripped[stmt:i].strip()
            if NAMESPACE_HEADER_RE.match(header) or header.startswith(
                    "extern"):
                stmt = i + 1
            else:
                close = matching_brace(stripped, i)
                end = close + 1
                tail = re.match(r"\s*;", stripped[end:])
                if tail:
                    end += tail.end()
                yield from classify_item(stripped, stmt, i, end,
                                         has_body=True)
                stmt = i = end
                continue
        i += 1


def classify_item(stripped, start, header_end, end, has_body):
    raw_header = stripped[start:header_end]
    header = strip_template_prefix(raw_header)
    offset = start + (len(raw_header) - len(header))
    if not header or header.split(None, 1)[0] in NOT_A_FUNCTION:
        return
    m = CLASS_HEADER_RE.match(header)
    if m:
        if has_body:
            yield ("class", m.group(1), "", offset + m.start(1), start, end)
        return
    m = DECLARATOR_RE.search(header)
    if not m or m.group(2).lstrip("~") in CPP_KEYWORDS:
        return
    before = header[:m.start()]
    qualifier = re.sub(r"\s", "", m.group(1)).rstrip(":")
    if "=" in before or (not before.strip() and not qualifier):
        return
    yield ("function", m.group(2), qualifier.split("::")[-1],
           offset + m.start(2), start, end)


def stripped_cpp(path):
    return blank_preprocessor(strip_comments_and_strings(path.read_text()))


def rule_test_only_api(repo):
    sources = {p: stripped_cpp(p) for p in src_files(repo)}
    items = {p: list(namespace_items(text)) for p, text in sources.items()}

    callers = []
    for sub in CALLER_DIRS:
        root = repo / sub
        if root.is_dir():
            callers += [stripped_cpp(p) for p in sorted(root.rglob("*"))
                        if p.suffix in CPP_SUFFIXES]

    def own_spans(kind, name):
        """Per file, the spans that declare or define `name` itself: its
        declarations and definitions for a function; its body and its
        out-of-line members for a class."""
        spans = {}
        for path, entries in items.items():
            for k, nm, qual, _, start, end in entries:
                if k == "function" and not qual:
                    mine = kind == "function" and nm == name
                else:  # a class body, or a `Class::member` definition
                    mine = kind == "class" and (qual or nm) == name
                if mine:
                    spans.setdefault(path, []).append((start, end))
        return spans

    findings = []
    for path in sorted(items):
        if path.suffix != ".hpp":
            continue
        raw_lines = path.read_text().splitlines()
        waivers, _ = scan_waivers(raw_lines)
        rel = path.relative_to(repo)
        reported = set()
        for kind, name, qual, name_offset, _, _ in items[path]:
            if qual or (kind, name) in reported:
                continue
            reported.add((kind, name))
            word = re.compile(r"\b" + re.escape(name) + r"\b")
            if any(word.search(text) for text in callers):
                continue
            spans = own_spans(kind, name)
            if any(not any(s <= m.start() < e for s, e in spans.get(p, ()))
                   for p, text in sources.items()
                   for m in word.finditer(text)):
                continue
            lineno = line_of_offset(sources[path], name_offset)
            if is_waived(waivers, lineno, "test-only-api"):
                continue
            findings.append(Finding(
                rel, lineno, "test-only-api",
                f"{kind} '{name}' has no caller outside tests/ (nothing in "
                "src/, examples/, bench/ or perfbench/ names it); delete it "
                "with its tests or waive with the reason it stays"))
    return findings


# --------------------------------------------------------------------------

RULE_FNS = {
    "nondeterminism": rule_nondeterminism,
    "unordered-iteration": rule_unordered_iteration,
    "hoisted-gate": rule_hoisted_gate,
    "ci-bench-sync": rule_ci_bench_sync,
    "test-only-api": rule_test_only_api,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=None,
                        help="repository root (default: two levels up)")
    parser.add_argument("--rule", action="append", choices=ALL_RULES,
                        help="run only the given rule(s)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    repo = pathlib.Path(args.repo) if args.repo else \
        pathlib.Path(__file__).resolve().parents[2]
    rules = args.rule or ALL_RULES
    if not (repo / "src").is_dir() and SRC_RULES.intersection(rules):
        print(f"snnmap-lint: no src/ under {repo}", file=sys.stderr)
        return 2

    findings = []
    for rule in rules:
        findings.extend(RULE_FNS[rule](repo))
    for finding in findings:
        print(finding)
    if findings:
        print(f"snnmap-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
